package shard

import (
	"bytes"

	"repro/internal/lsm"
)

// Iter is the iterator surface DB.NewIterator and Snapshot.NewIterator
// return: a streaming, ascending scan. It is always an *lsm.Iterator,
// one merge over the sources of every shard it reads.
type Iter interface {
	// Next advances; the iterator starts before the first entry.
	Next() bool
	// Key returns the current key.
	Key() []byte
	// Value returns the current value.
	Value() []byte
	// Err returns the first error the scan encountered.
	Err() error
	// Close releases the iterator's sources and snapshot pins.
	Close() error
}

// NewIterator returns a streaming scan of [start, limit) (nil bounds
// are unbounded). Empty bounds do no shard work, and in particular take
// no cross-shard barrier. A one-shard store scans through its shard's own
// snapshot (per-shard commits are atomic, so one shard's view is always
// consistent); a scan spanning shards is taken on a cross-shard snapshot
// that dies with the iterator, so it can never observe half of a
// concurrent cross-shard Apply.
func (db *DB) NewIterator(start, limit []byte) (Iter, error) {
	switch {
	case start != nil && limit != nil && bytes.Compare(start, limit) >= 0:
		return iter(lsm.NewIterator(nil, start, limit, nil))
	case len(db.shards) == 1:
		return iter(db.shards[0].NewIterator(start, limit))
	}
	s, err := db.NewSnapshot()
	if err != nil {
		return nil, err
	}
	return iter(lsm.NewIterator(s.snaps, start, limit, func() { s.Close() }))
}

// iter hands an lsm iterator on as an Iter, and a failure as an explicit
// nil: a typed-nil *lsm.Iterator inside the interface would pass callers'
// `it != nil` checks.
func iter(it *lsm.Iterator, err error) (Iter, error) {
	if err != nil {
		return nil, err
	}
	return it, nil
}
