package shard

import (
	"bytes"

	"repro/internal/lsm"
)

// NewIterator returns a streaming scan of [start, limit) (nil bounds
// are unbounded): one merge over the sources of every shard it reads.
// Empty bounds do no shard work, and in particular take no cross-shard
// barrier. A one-shard store scans through its shard's own snapshot
// (per-shard commits are atomic, so one shard's view is always
// consistent); a scan spanning shards is taken on a cross-shard snapshot
// that dies with the iterator, so it can never observe half of a
// concurrent cross-shard Apply.
func (db *DB) NewIterator(start, limit []byte) (*lsm.Iterator, error) {
	switch {
	case start != nil && limit != nil && bytes.Compare(start, limit) >= 0:
		return lsm.NewIterator(nil, start, limit, nil)
	case len(db.shards) == 1:
		return db.shards[0].NewIterator(start, limit)
	}
	s, err := db.NewSnapshot()
	if err != nil {
		return nil, err
	}
	return lsm.NewIterator(s.snaps, start, limit, func() { s.Close() })
}
