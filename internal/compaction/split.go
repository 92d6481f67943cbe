// Parallel subcompactions: one picked compaction is partitioned into K
// disjoint key-range slices, each merged independently into its own
// output tables, and the union of the outputs is installed as a single
// atomic manifest edit. The splitter chooses boundaries from the input
// tables' block index separators — partition points the tables already
// paid for — so a slice's iterators SeekGE straight to their range
// instead of scanning from the front.
package compaction

import (
	"bytes"
	"sort"

	"repro/internal/sstable"
)

// Slice is one key-range partition of a compaction: the half-open
// interval [Lower, Upper). A nil Lower means unbounded below, a nil
// Upper unbounded above; the zero Slice covers everything. Boundaries
// compare whole user keys, so every version of a key lands in exactly
// one slice and per-slice dedup sees what a monolithic merge would.
type Slice struct {
	Lower, Upper []byte
}

// blockSeparated is implemented by tables that expose their block
// index's last keys (both SSTable readers do); tables that don't simply
// contribute no split points.
type blockSeparated interface {
	BlockSeparators() [][]byte
}

// SplitJob partitions the key space covered by tables into at most
// maxSlices contiguous slices with boundaries drawn evenly from the
// tables' pooled block separators. It returns at least one slice; a
// single (unbounded) slice means the compaction runs monolithically —
// because maxSlices <= 1, or the tables expose too few distinct
// interior separators to cut.
func SplitJob(tables []sstable.Table, maxSlices int) []Slice {
	if maxSlices > len(tables)*64 {
		// No point slicing finer than the data can spread.
		maxSlices = len(tables) * 64
	}
	if maxSlices <= 1 {
		return []Slice{{}}
	}
	lo, hi := tableKeyRange(tables)
	var seps [][]byte
	for _, t := range tables {
		bs, ok := t.(blockSeparated)
		if !ok {
			continue
		}
		for _, s := range bs.BlockSeparators() {
			// A boundary at or below the overall smallest key (or at or
			// above the largest) would produce an empty edge slice.
			if bytes.Compare(s, lo) > 0 && bytes.Compare(s, hi) < 0 {
				seps = append(seps, s)
			}
		}
	}
	if len(seps) == 0 {
		return []Slice{{}}
	}
	sort.Slice(seps, func(i, j int) bool { return bytes.Compare(seps[i], seps[j]) < 0 })
	uniq := seps[:1]
	for _, s := range seps[1:] {
		if !bytes.Equal(s, uniq[len(uniq)-1]) {
			uniq = append(uniq, s)
		}
	}
	k := maxSlices
	if k > len(uniq)+1 {
		k = len(uniq) + 1
	}
	out := make([]Slice, 0, k)
	var lower []byte
	for i := 1; i < k; i++ {
		b := uniq[i*len(uniq)/k]
		out = append(out, Slice{Lower: lower, Upper: b})
		lower = b
	}
	return append(out, Slice{Lower: lower})
}

func tableKeyRange(tables []sstable.Table) (lo, hi []byte) {
	for _, t := range tables {
		if lo == nil || bytes.Compare(t.Smallest(), lo) < 0 {
			lo = t.Smallest()
		}
		if hi == nil || bytes.Compare(t.Largest(), hi) > 0 {
			hi = t.Largest()
		}
	}
	return lo, hi
}

// boundedIter restricts a table iterator to a Slice: the first Next
// seeks to the lower bound, and iteration stops at the first key at or
// past the upper bound.
type boundedIter struct {
	sstable.Iterator
	slc     Slice
	started bool
	done    bool
}

func (b *boundedIter) Next() bool {
	if b.done {
		return false
	}
	var ok bool
	if !b.started {
		b.started = true
		if b.slc.Lower != nil {
			ok = b.Iterator.SeekGE(b.slc.Lower)
		} else {
			ok = b.Iterator.Next()
		}
	} else {
		ok = b.Iterator.Next()
	}
	return b.check(ok)
}

func (b *boundedIter) SeekGE(key []byte) bool {
	if b.done {
		return false
	}
	b.started = true
	if b.slc.Lower != nil && bytes.Compare(key, b.slc.Lower) < 0 {
		key = b.slc.Lower
	}
	return b.check(b.Iterator.SeekGE(key))
}

func (b *boundedIter) check(ok bool) bool {
	if !ok {
		b.done = true
		return false
	}
	if b.slc.Upper != nil && bytes.Compare(b.Iterator.Entry().Key, b.slc.Upper) >= 0 {
		b.done = true
		return false
	}
	return true
}

// NewSliceMerge opens one iterator per table — tables[0] being the
// newest source, as NewMergeIterator requires — bounds each to slc, and
// returns their merge. With the zero Slice it is exactly the monolithic
// compaction merge. m is the compaction's shared merge state; every slice
// of one compaction passes the same one. The caller owns the result and
// must Close it (or hand it to NewDedupIterator, which takes ownership)
// before it closes m.
func NewSliceMerge(m *sstable.Merge, tables []sstable.Table, slc Slice) (*MergeIterator, error) {
	its := make([]sstable.Iterator, 0, len(tables))
	for _, t := range tables {
		it, err := t.NewMergeIterator(m)
		if err != nil {
			for _, prev := range its {
				prev.Close()
			}
			return nil, err
		}
		its = append(its, &boundedIter{Iterator: it, slc: slc})
	}
	return NewMergeIterator(its), nil
}
