package shard

import (
	"bytes"

	"repro/internal/lsm"
)

// NewIterator returns a streaming scan of [start, limit) (nil bounds
// are unbounded): one merge over the sources of every shard, on a store
// snapshot taken now that lives as long as the iterator, so a scan can
// never observe half of a concurrent cross-shard Apply. Empty bounds do
// no shard work, and in particular take no ticket.
func (db *DB) NewIterator(start, limit []byte) (*lsm.Iterator, error) {
	if start != nil && limit != nil && bytes.Compare(start, limit) >= 0 {
		return lsm.NewIterator(nil, start, limit)
	}
	s, err := db.NewSnapshot()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.NewIterator(start, limit)
}
