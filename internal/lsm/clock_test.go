package lsm

import (
	"sync"
	"weak"

	"repro/internal/base"
)

// The engine numbers no commit and no snapshot itself: in a store, the
// commit clock of internal/shard draws every sequence and calls WriteAt,
// CommitAt and NewSnapshotAt. The tests stand in for that clock with
// clocked: a commit takes LastSeq()+1 and a snapshot pins LastSeq(), each
// under one lock per DB held from the draw to the end of the commit or
// capture, as the store clock holds a shard's commit lock.

// clocks maps each DB, weakly so that a closed one can be collected, to
// its clock lock.
var clocks sync.Map

// testClock is one DB's writes and pins, numbered by its clock.
type testClock struct {
	db *DB
	mu *sync.Mutex
}

// clocked returns db's clock.
func clocked(db *DB) testClock {
	mu, _ := clocks.LoadOrStore(weak.Make(db), new(sync.Mutex))
	return testClock{db, mu.(*sync.Mutex)}
}

// Put associates value with key.
func (c testClock) Put(key, value []byte) error { return c.write(key, value, base.KindSet) }

// Delete removes key (writing a tombstone).
func (c testClock) Delete(key []byte) error { return c.write(key, nil, base.KindDelete) }

// write absorbs a stall before it takes the lock, as the store's writes
// do before they take a ticket, then commits at the next sequence.
func (c testClock) write(key, value []byte, kind base.Kind) error {
	if err := c.db.WaitWritable(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.WriteAt(c.db.LastSeq()+1, key, value, kind)
}

// Apply commits b at the next sequence.
func (c testClock) Apply(b *Batch) error {
	if err := c.db.WaitWritable(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.CommitAt(c.db.LastSeq()+1, b, nil)
}

// NewSnapshot pins everything committed so far.
func (c testClock) NewSnapshot() (*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.NewSnapshotAt(c.db.LastSeq())
}

// NewIterator scans [start, limit) on a snapshot taken now, which lives as
// long as the iterator.
func (c testClock) NewIterator(start, limit []byte) (*Iterator, error) {
	s, err := c.NewSnapshot()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.NewIterator(start, limit)
}
