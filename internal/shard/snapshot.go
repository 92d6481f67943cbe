package shard

import "repro/internal/lsm"

// Snapshot is a pinned read view spanning every shard, taken at one
// epoch of the store-wide commit clock: NewSnapshot draws a ticket
// covering all shards, so its epoch is drawn while it holds every shard's
// commit lock — after every batch with an earlier epoch has committed,
// before any with a later one can. All shards therefore pin the same
// logical instant (the epoch); each is released the moment it is
// captured, so writes to an already-captured shard proceed while the rest
// of the capture runs. A multi-shard batch is either entirely visible
// (epoch below the snapshot's) or entirely invisible — a scan can never
// observe half of a cross-shard commit, and concurrent conflicting
// batches appear in exactly their serialized epoch order.
//
// Close releases every shard's pin; iterators opened from the snapshot
// keep the underlying per-shard pins alive until they close. Every engine
// pin belongs to exactly one store snapshot, which pins every shard, so
// shard 0's pins count the store's snapshots (OpenSnapshots).
type Snapshot struct {
	snaps []*lsm.Snapshot
	epoch uint64
}

// NewSnapshot pins all shards at one epoch: it takes every shard's commit
// lock, draws the epoch, and releases each shard as soon as it is
// captured.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	epoch := db.clk.acquire(db.idxAll)
	snaps := make([]*lsm.Snapshot, len(db.shards))
	var firstErr error
	for i, s := range db.shards {
		if firstErr == nil {
			snaps[i], firstErr = s.NewSnapshotAt(epoch)
		}
		db.clk.release(i)
	}
	if firstErr != nil {
		for _, s := range snaps {
			if s != nil {
				s.Close()
			}
		}
		return nil, firstErr
	}
	return &Snapshot{snaps: snaps, epoch: epoch}, nil
}

// Epoch reports the snapshot's position in the store-wide commit order:
// the snapshot observes exactly the batches whose epoch is below it.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Get returns the value stored under key as of the snapshot, or
// lsm.ErrNotFound; lsm.ErrSnapshotClosed after Close.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	return s.snaps[fnv(key, len(s.snaps))].Get(key)
}

// NewIterator returns a streaming scan of [start, limit) over the
// snapshot's pinned views: one merge over every shard's sources. Empty
// bounds open no source.
func (s *Snapshot) NewIterator(start, limit []byte) (*lsm.Iterator, error) {
	return lsm.NewIterator(s.snaps, start, limit)
}

// Close releases every shard's pin. Idempotent; open iterators stay
// valid until they close.
func (s *Snapshot) Close() error {
	var err error
	for _, snap := range s.snaps {
		if e := snap.Close(); err == nil {
			err = e
		}
	}
	return err
}

// OpenSnapshots reports the number of live store snapshots: a snapshot
// counts until its handle and every iterator opened from it are closed,
// or the finalizer reclaims them.
func (db *DB) OpenSnapshots() int { return db.shards[0].OpenSnapshots() }

// LeakedSnapshots reports how many store snapshots the finalizer
// reclaimed because their handle, or an iterator opened from them, was
// dropped without Close.
func (db *DB) LeakedSnapshots() int64 { return db.shards[0].LeakedSnapshots() }
