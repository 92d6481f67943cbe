// Package compaction implements the leveled-compaction machinery: the
// N-way merge over heterogeneous tables (classic SSTables and TRIAD-LOG
// CL-SSTables merge identically because both iterate in key order) and the
// picker that decides what to compact — including TRIAD-DISK's decision to
// *defer* an L0→L1 compaction while the HyperLogLog-estimated key overlap
// among L0 files is still low (paper §4.2, Algorithm 2, Figure 5).
package compaction

import (
	"bytes"

	"repro/internal/base"
	"repro/internal/sstable"
)

// MergeIterator yields the union of several table iterators in ascending
// (key, descending seq) order — i.e. for duplicate keys the newest version
// comes out first, which lets the consumer keep the first and discard the
// rest, exactly the "merge sort discarding stale values" of paper §2.
type MergeIterator struct {
	h      mergeHeap
	cur    base.Entry
	curSrc int
	err    error
	// inputs retained for Close.
	inputs []sstable.Iterator
}

type mergeItem struct {
	it    sstable.Iterator
	entry base.Entry
	// rank breaks full ties deterministically: lower rank = newer source.
	rank int
}

// mergeHeap is a binary min-heap of the inputs by their current entry,
// sifted directly rather than through container/heap's interface calls.
type mergeHeap []*mergeItem

func (h mergeHeap) less(i, j int) bool {
	if c := base.Compare(h[i].entry, h[j].entry); c != 0 {
		return c < 0
	}
	return h[i].rank < h[j].rank
}

// down sifts h[i] down to its place.
func (h mergeHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// NewMergeIterator merges its, where its[0] is the newest source (rank 0).
// It takes ownership of the iterators.
func NewMergeIterator(its []sstable.Iterator) *MergeIterator {
	m := &MergeIterator{inputs: its}
	for rank, it := range its {
		if it.Next() {
			m.h = append(m.h, &mergeItem{it: it, entry: it.Entry(), rank: rank})
		} else if err := it.Err(); err != nil {
			m.err = err
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.h.down(i)
	}
	return m
}

// Next advances to the next entry in merged order.
func (m *MergeIterator) Next() bool {
	if m.err != nil || len(m.h) == 0 {
		return false
	}
	top := m.h[0]
	m.cur, m.curSrc = top.entry, top.rank
	if top.it.Next() {
		top.entry = top.it.Entry()
	} else {
		if err := top.it.Err(); err != nil {
			m.err = err
			return false
		}
		last := len(m.h) - 1
		m.h[0], m.h = m.h[last], m.h[:last]
	}
	m.h.down(0)
	return true
}

// Entry returns the current entry.
func (m *MergeIterator) Entry() base.Entry { return m.cur }

// Source returns the index, in the iterators NewMergeIterator was given, of
// the one the current entry came from.
func (m *MergeIterator) Source() int { return m.curSrc }

// Err returns the first error from any input.
func (m *MergeIterator) Err() error { return m.err }

// Close closes all inputs.
func (m *MergeIterator) Close() error {
	var first error
	for _, it := range m.inputs {
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DedupIterator wraps a MergeIterator and yields only the newest version
// of each key, optionally dropping tombstones (legal only when compacting
// into the bottommost non-empty level, where nothing older can hide
// below). It also skips keys in skip — TRIAD-MEM integration: "during
// compaction, the hot keys are skipped" when they are known to be
// superseded in memory (paper §4.3).
type DedupIterator struct {
	m              *MergeIterator
	dropTombstones bool
	skip           func(key []byte) bool
	lastKey        []byte
	cur            base.Entry
	discarded      int64
}

// NewDedupIterator wraps m. skip may be nil.
func NewDedupIterator(m *MergeIterator, dropTombstones bool, skip func(key []byte) bool) *DedupIterator {
	return &DedupIterator{m: m, dropTombstones: dropTombstones, skip: skip}
}

// Next advances to the next surviving entry.
func (d *DedupIterator) Next() bool {
	for d.m.Next() {
		e := d.m.Entry()
		if d.lastKey != nil && bytes.Equal(e.Key, d.lastKey) {
			d.discarded++ // older version of the same key
			continue
		}
		d.lastKey = append(d.lastKey[:0], e.Key...)
		if d.skip != nil && d.skip(e.Key) {
			d.discarded++
			continue
		}
		if d.dropTombstones && e.Kind == base.KindDelete {
			d.discarded++
			continue
		}
		d.cur = e
		return true
	}
	return false
}

// Discarded reports how many merged entries were consumed without being
// yielded so far: shadowed older versions, skipped hot keys and dropped
// tombstones.
func (d *DedupIterator) Discarded() int64 { return d.discarded }

// Entry returns the current entry.
func (d *DedupIterator) Entry() base.Entry { return d.cur }

// Source returns the index of the merged iterator the current entry came
// from (MergeIterator.Source).
func (d *DedupIterator) Source() int { return d.m.Source() }

// Err returns the first error from the merge.
func (d *DedupIterator) Err() error { return d.m.Err() }

// Close closes the underlying merge.
func (d *DedupIterator) Close() error { return d.m.Close() }
