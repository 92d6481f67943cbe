package shard

import (
	"bytes"
	"container/heap"

	"repro/internal/lsm"
)

// Iter is the iterator surface DB.NewIterator and Snapshot.NewIterator
// return: a streaming, ascending scan. A one-shard store's scan is that
// shard's *lsm.Iterator, verbatim (no cross-shard machinery at all); any
// other is a *Merged, a k-way heap merge of the shards' iterators.
type Iter interface {
	// Next advances; the iterator starts before the first entry.
	Next() bool
	// Key returns the current key.
	Key() []byte
	// Value returns the current value.
	Value() []byte
	// Err returns the first error the scan encountered.
	Err() error
	// Close releases the per-shard iterators and their snapshot pins.
	Close() error
}

// NewIterator returns a streaming scan of [start, limit) (nil bounds
// are unbounded). Empty bounds do no shard work, and in particular take
// no cross-shard barrier. A one-shard store skips the cross-shard
// snapshot entirely (per-shard commits are atomic, so one shard's view
// is always consistent); a scan spanning shards is taken on a pinned
// cross-shard snapshot that dies with the iterator, so it can never
// observe half of a concurrent cross-shard Apply.
func (db *DB) NewIterator(start, limit []byte) (Iter, error) {
	switch {
	case emptyRange(start, limit):
		return &Merged{}, nil
	case len(db.shards) == 1:
		it, err := db.shards[0].NewIterator(start, limit)
		if err != nil {
			// Return an explicit nil: a typed-nil *lsm.Iterator inside
			// the interface would pass callers' `it != nil` checks.
			return nil, err
		}
		return it, nil
	}
	s, err := db.NewSnapshot()
	if err != nil {
		return nil, err
	}
	return s.newIterator(start, limit, s)
}

// emptyRange reports whether [start, limit) can hold no key.
func emptyRange(start, limit []byte) bool {
	return start != nil && limit != nil && bytes.Compare(start, limit) >= 0
}

// Merged is an ascending, globally sorted scan across shards whose key
// ownership is scattered by the hash, produced by a k-way heap merge of
// the per-shard snapshot iterators. Each key lives on exactly one shard,
// so the merge needs no deduplication; ordering is by key alone. The
// zero Merged is an empty scan.
type Merged struct {
	all    []*lsm.Iterator
	h      iterHeap
	cur    *lsm.Iterator // source of the current entry; nil before first Next
	snap   *Snapshot     // owned single-use snapshot, nil otherwise
	err    error
	closed bool
}

func newMerged(its []*lsm.Iterator, owned *Snapshot) *Merged {
	out := &Merged{all: its, snap: owned}
	for _, it := range its {
		if it.Next() {
			out.h = append(out.h, it)
		} else if err := it.Err(); err != nil && out.err == nil {
			out.err = err
		}
	}
	heap.Init(&out.h)
	return out
}

// Next advances; the iterator starts before the first entry.
func (it *Merged) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.cur != nil {
		// Re-admit the source we last yielded from, now at its next
		// position (or retire it when exhausted).
		if it.cur.Next() {
			heap.Push(&it.h, it.cur)
		} else if err := it.cur.Err(); err != nil {
			it.err = err
			it.cur = nil
			return false
		}
		it.cur = nil
	}
	if it.h.Len() == 0 {
		return false
	}
	it.cur = heap.Pop(&it.h).(*lsm.Iterator)
	return true
}

// Key returns the current key.
func (it *Merged) Key() []byte { return it.cur.Key() }

// Value returns the current value.
func (it *Merged) Value() []byte { return it.cur.Value() }

// Err returns the first error the scan encountered.
func (it *Merged) Err() error { return it.err }

// Close releases the per-shard iterators (and the owned snapshot when
// DB.NewIterator created one). Idempotent.
func (it *Merged) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	for _, in := range it.all {
		if err := in.Close(); err != nil && it.err == nil {
			it.err = err
		}
	}
	if it.snap != nil {
		it.snap.Close()
	}
	return it.err
}

// iterHeap is a min-heap of shard iterators ordered by current key.
type iterHeap []*lsm.Iterator

func (h iterHeap) Len() int { return len(h) }
func (h iterHeap) Less(i, j int) bool {
	return bytes.Compare(h[i].Key(), h[j].Key()) < 0
}
func (h iterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *iterHeap) Push(x any)   { *h = append(*h, x.(*lsm.Iterator)) }
func (h *iterHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
