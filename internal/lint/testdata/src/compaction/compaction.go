// Package compaction is a stub of repro/internal/compaction for
// analyzer golden tests: the merge/dedup iterator lifetime surface of a
// compaction.
package compaction

type Entry struct{ Key, Value []byte }

type Iterator interface {
	Next() bool
	Entry() Entry
	Err() error
	Close() error
}

type MergeIterator struct{}

func NewMergeIterator(its []Iterator) *MergeIterator { return &MergeIterator{} }

func (m *MergeIterator) Next() bool   { return false }
func (m *MergeIterator) Entry() Entry { return Entry{} }
func (m *MergeIterator) Err() error   { return nil }
func (m *MergeIterator) Close() error { return nil }

type DedupIterator struct{}

func NewDedupIterator(m *MergeIterator, dropTombstones bool, skip func(key []byte) bool) *DedupIterator {
	return &DedupIterator{}
}

func (d *DedupIterator) Next() bool   { return false }
func (d *DedupIterator) Entry() Entry { return Entry{} }
func (d *DedupIterator) Err() error   { return nil }
func (d *DedupIterator) Close() error { return nil }
