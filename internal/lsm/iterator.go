package lsm

import (
	"bytes"
	"errors"
	"slices"
	"sync"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/memtable"
	"repro/internal/sstable"
)

// Iterator is an ascending, point-in-time range scan over the live keys
// of one or more snapshots: every scan of a store, each on one store
// snapshot. It is a *streaming* k-way merge over the
// pinned memtable stacks and the pinned versions' tables — the merge a
// compaction runs (compaction.MergeIterator + DedupIterator): entries are
// produced lazily, O(log sources) amortized per step, with nothing
// materialized up front. Creation costs one seek per source, and each L0
// CL-SSTable source reads its commit logs whole. The iterator's own pin
// on each snapshot keeps every source alive (including files a concurrent
// compaction has since consumed), so flushes and compactions proceed
// untouched underneath a long scan, and the snapshots may close first.
//
// Usage: for it.Next() { it.Key(), it.Value() }; check Err, then Close.
// Key and Value return slices that stay valid until Close (they alias the
// pinned sources).
type Iterator struct {
	snaps  []*Snapshot // one pin each
	dedup  *compaction.DedupIterator
	cur    base.Entry
	err    error
	closed bool
}

// NewIterator returns a streaming scan of [start, limit) (nil bounds are
// unbounded) over the union of snaps: a store snapshot's pins, one per
// shard, whose keys are disjoint. The iterator takes a pin
// of its own on each snapshot, so the snapshots may close first. An empty
// range opens no source, and only an empty range may come with no
// snapshot.
func NewIterator(snaps []*Snapshot, start, limit []byte) (*Iterator, error) {
	it := &Iterator{snaps: slices.Clone(snaps)}
	for i, s := range snaps {
		if err := s.addRef(); err != nil {
			it.snaps = it.snaps[:i]
			it.Close()
			return nil, err
		}
	}
	var its []sstable.Iterator
	if start == nil || limit == nil || bytes.Compare(start, limit) < 0 {
		var err error
		if its, err = sources(snaps, start, limit); err != nil {
			it.Close()
			return nil, err
		}
	}
	it.dedup = compaction.NewDedupIterator(compaction.NewMergeIterator(its), true, nil)
	return it, nil
}

// sources opens the sources of every snapshot in snaps, all at once: a
// CL-SSTable source reads its logs whole. The last snapshot's open on
// this goroutine, the others' beside it, so a one-snapshot scan starts
// no goroutine. The snapshots' keys are disjoint, so their sources may
// come in any order. On failure it closes what it opened.
func sources(snaps []*Snapshot, start, limit []byte) ([]sstable.Iterator, error) {
	last := len(snaps) - 1
	srcs := make([][]sstable.Iterator, last)
	errs := make([]error, last)
	var wg sync.WaitGroup
	for i, s := range snaps[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srcs[i], errs[i] = s.sources(start, limit)
		}()
	}
	its, err := snaps[last].sources(start, limit)
	wg.Wait()
	if err = errors.Join(err, errors.Join(errs...)); err != nil {
		closeAll(its)
		for _, src := range srcs {
			closeAll(src)
		}
		return nil, err
	}
	for _, src := range srcs {
		its = append(its, src...)
	}
	return its, nil
}

// sources opens s's sources over [start, limit), newest-first: the merge
// resolves same-key ties by source rank, so fresher sources must come
// earlier. On failure it closes what it opened.
func (s *Snapshot) sources(start, limit []byte) ([]sstable.Iterator, error) {
	db := s.db
	var its []sstable.Iterator
	for i := len(s.mems) - 1; i >= 0; i-- {
		its = append(its, &memIter{it: s.mems[i].NewIter(), seq: s.seq})
	}
	db.versionMu.RLock()
	if db.tables == nil {
		db.versionMu.RUnlock()
		return nil, ErrClosed
	}
	for _, files := range s.version.Levels {
		for _, f := range files {
			it, err := db.tables[f.ID].NewIterator()
			if err != nil {
				db.versionMu.RUnlock()
				closeAll(its)
				return nil, err
			}
			its = append(its, it)
		}
	}
	db.versionMu.RUnlock()
	for i := range its {
		its[i] = &boundedIter{in: its[i], start: start, limit: limit}
	}
	return its, nil
}

// NewIterator returns a streaming scan of [start, limit) (nil bounds are
// unbounded) over the snapshot's pinned view.
func (s *Snapshot) NewIterator(start, limit []byte) (*Iterator, error) {
	return NewIterator([]*Snapshot{s}, start, limit)
}

// Next advances; the iterator starts before the first entry.
func (it *Iterator) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if !it.dedup.Next() {
		it.err = it.dedup.Err()
		return false
	}
	it.cur = it.dedup.Entry()
	return true
}

// Key returns the current key.
func (it *Iterator) Key() []byte { return it.cur.Key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.cur.Value }

// Err returns the first error the scan encountered (nil on clean
// exhaustion).
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's sources and its snapshot pins. Idempotent. It returns Err() so `defer it.Close()` users
// still surface scan errors when they check the return.
func (it *Iterator) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	if it.dedup != nil {
		if err := it.dedup.Close(); err != nil && it.err == nil {
			it.err = err
		}
	}
	for _, s := range it.snaps {
		s.unref()
	}
	return it.err
}

// boundedIter restricts a source to [start, limit): the first advance
// seeks to start (making creation O(seek), not O(prefix)), and the scan
// reports exhaustion at the first key >= limit.
type boundedIter struct {
	in      sstable.Iterator
	start   []byte
	limit   []byte
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
		if b.start != nil {
			ok = b.in.SeekGE(b.start)
		} else {
			ok = b.in.Next()
		}
	} else {
		ok = b.in.Next()
	}
	if !ok {
		b.done = true
		return false
	}
	if b.limit != nil && bytes.Compare(b.in.Entry().Key, b.limit) >= 0 {
		b.done = true
		return false
	}
	return true
}

func (b *boundedIter) SeekGE(key []byte) bool {
	b.started = true
	b.done = false
	if b.start != nil && bytes.Compare(key, b.start) < 0 {
		key = b.start
	}
	if !b.in.SeekGE(key) {
		b.done = true
		return false
	}
	if b.limit != nil && bytes.Compare(b.in.Entry().Key, b.limit) >= 0 {
		b.done = true
		return false
	}
	return true
}

func (b *boundedIter) Entry() base.Entry { return b.in.Entry() }
func (b *boundedIter) Err() error        { return b.in.Err() }
func (b *boundedIter) Close() error      { return b.in.Close() }

// memIter streams a memtable as of sequence seq: each key's newest
// version at or below it (memtable.Entry.At). A key with none — written
// after seq — is skipped; its older versions, if any, are in the sources
// behind this one.
type memIter struct {
	it  *memtable.Iter
	seq uint64
	cur base.Entry
}

func (m *memIter) Next() bool {
	for m.it.Next() {
		if m.admit() {
			return true
		}
	}
	return false
}

func (m *memIter) SeekGE(key []byte) bool {
	if !m.it.SeekGE(key) {
		return false
	}
	return m.admit() || m.Next()
}

// admit sets cur to the current entry's version at seq, if it has one.
func (m *memIter) admit() bool {
	e, ok := m.it.At(m.seq)
	if ok {
		m.cur = e.Base()
	}
	return ok
}

func (m *memIter) Entry() base.Entry { return m.cur }
func (m *memIter) Err() error        { return nil }
func (m *memIter) Close() error      { return nil }
