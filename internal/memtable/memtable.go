// Package memtable implements the LSM memory component Cm (paper §2).
//
// Beyond the classic sorted map, entries carry the metadata TRIAD needs
// (paper §4, "TRIAD Memory Overhead Analysis"): a 4-byte update-frequency
// counter for TRIAD-MEM hot/cold separation, and the commit-log file ID and
// offset of the most recent update for TRIAD-LOG's index-only flush.
//
// Updates are absorbed in place (Algorithm 1, Update): a second write to a
// key replaces the value and increments the counter rather than appending a
// version, which is precisely why a skewed workload fills the commit log
// faster than the memtable. The one exception is a version an open snapshot
// still reads: SetPinned keeps it behind the entry that replaced it, where
// Entry.At finds it, until no snapshot can read it.
package memtable

import (
	"bytes"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/base"
	"repro/internal/skiplist"
)

// Entry is one memtable record with TRIAD metadata.
type Entry struct {
	Key   []byte
	Value []byte
	Seq   uint64
	Kind  base.Kind
	// Updates counts in-place updates to this key since it entered the
	// memtable (TRIAD-MEM hotness signal).
	Updates uint32
	// LogID and LogOffset locate the most recent record for this key in
	// the commit log (TRIAD-LOG).
	LogID     uint64
	LogOffset int64
	// older is the newest of the versions this one replaced that a snapshot
	// still reads, and older's older the next such, newest first; nil when
	// none is. Like the rest of an entry it never changes once published.
	older *Entry
}

// At returns the newest version of e's key at or below seq: e itself, or
// one of the versions kept behind it for a snapshot.
func (e *Entry) At(seq uint64) (*Entry, bool) {
	for v := e; v != nil; v = v.older {
		if v.Seq <= seq {
			return v, true
		}
	}
	return nil, false
}

// Base converts to the shared record type.
func (e *Entry) Base() base.Entry {
	return base.Entry{Key: e.Key, Value: e.Value, Seq: e.Seq, Kind: e.Kind}
}

// entryOverhead approximates per-entry bookkeeping bytes when accounting
// memtable size, matching the paper's 12 B/entry TRIAD overhead plus the
// skiplist node itself.
const entryOverhead = 48

// size is what e adds to ApproxSize.
func (e *Entry) size() int64 { return int64(len(e.Key)+len(e.Value)) + entryOverhead }

// Memtable is a mutable sorted map with one writer and lock-free readers
// (see package skiplist). Set, SetPinned, Relog and SeparateKeys are
// writes: at most one goroutine may be inside any of them at a time — the
// engine holds its commit lock around the first three while the memtable
// is live, and only the flush task touches a sealed one (Relog, then
// SeparateKeys). Get, Len, ApproxSize, ColdBytes, Kept, All and iterators
// may run concurrently with the writer and take no lock.
//
// Entries are copy-on-write: a write publishes a fresh *Entry and never
// modifies one a reader may hold, so every Entry a reader obtains is one
// consistent version (value, sequence and log position of the same write).
type Memtable struct {
	list *skiplist.List[Entry]
	size atomic.Int64
}

// New returns an empty memtable; seed drives skiplist level randomness.
func New(seed int64) *Memtable {
	return &Memtable{list: skiplist.New[Entry](seed)}
}

// Set inserts or updates key. For an update the value is replaced, the
// update counter is incremented and the commit-log position is advanced
// to the new record (Algorithm 1, Update). Every version's Key is the
// skiplist's own copy of key, so the caller may reuse key once Set
// returns; value is kept as given and must not change.
func (m *Memtable) Set(key, value []byte, seq uint64, kind base.Kind, logID uint64, logOff int64) {
	m.SetPinned(key, value, seq, kind, logID, logOff, nil)
}

// SetPinned is Set while snapshots read the memtable: pinned holds their
// sequences, ascending. For each one below seq, the version a read there
// returns stays behind the new entry, which is published with it in one
// store; the versions none of them returns go. So a version kept for a
// snapshot that has closed goes with the next overwrite of its key, or with
// the memtable.
func (m *Memtable) SetPinned(key, value []byte, seq uint64, kind base.Kind, logID uint64, logOff int64, pinned []uint64) {
	m.list.Put(key, func(stored []byte, cur *Entry) *Entry {
		e := &Entry{Key: stored, Value: value, Seq: seq, Kind: kind, Updates: 1, LogID: logID, LogOffset: logOff}
		if cur == nil {
			m.size.Add(e.size())
			return e
		}
		e.Updates = cur.Updates + 1
		e.older = behind(seq, cur, pinned)
		m.size.Add(int64(len(value)) - int64(len(cur.Value)))
		return e
	})
}

// behind returns what to keep behind a version at seq that replaced v: of
// the versions from v down, those that reads at the pinned sequences
// (ascending) below seq return, newest first. It shares the longest tail
// of v's chain that it keeps whole and copies the versions above that
// tail, since a published entry never changes.
func behind(seq uint64, v *Entry, pinned []uint64) *Entry {
	n := len(pinned)
	for n > 0 && pinned[n-1] >= seq {
		n-- // reads the version at seq
	}
	if n == 0 {
		return nil
	}
	v, ok := v.At(pinned[n-1])
	if !ok {
		return nil
	}
	older := behind(v.Seq, v.older, pinned[:n])
	if older == v.older {
		return v
	}
	c := *v
	c.older = older
	return &c
}

// Relog re-points the entries whose newest record is in one of the commit
// logs from at the copies appended to log to, leaving the rest of their
// current version as it is: offs[i] is where the i-th such entry in key
// order — the order of All — was appended. Entries in any other log are not
// touched. One walk along the bottom of the list, no descent per key.
func (m *Memtable) Relog(from []uint64, to uint64, offs []int64) {
	it := m.list.NewIterator()
	for i := 0; it.Next(); {
		if !slices.Contains(from, it.Value().LogID) {
			continue
		}
		moved := *it.Value()
		moved.LogID, moved.LogOffset = to, offs[i]
		it.Set(&moved)
		i++
	}
}

// ContainsAscending returns a lookup for keys asked in ascending order:
// whether m holds key, exactly as Get would answer at the time of the
// call. It keeps its place at the last entry below the previous key asked
// and walks on from there, one list walk in all instead of a descent per
// key; the link after that place is loaded afresh on every call, so a key
// inserted since the previous call is seen.
func (m *Memtable) ContainsAscending() func(key []byte) bool {
	below := *m.list.NewIterator()
	return func(key []byte) bool {
		for {
			next := below
			if !next.Next() {
				return false
			}
			switch c := bytes.Compare(next.Key(), key); {
			case c == 0:
				return true
			case c > 0:
				return false
			}
			below = next
		}
	}
}

// Get returns a copy of the entry stored under key.
func (m *Memtable) Get(key []byte) (Entry, bool) {
	if e := m.list.Get(key); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// Len reports the number of entries.
func (m *Memtable) Len() int { return m.list.Len() }

// ApproxSize reports the approximate heap footprint in bytes; the flush
// trigger compares it against the configured memtable budget.
func (m *Memtable) ApproxSize() int64 { return m.size.Load() }

// All returns the current version of every entry in ascending key order.
func (m *Memtable) All() []*Entry {
	out := make([]*Entry, 0, m.list.Len())
	it := m.list.NewIterator()
	for it.Next() {
		out = append(out, it.Value())
	}
	return out
}

// Kept reports how many replaced versions the memtable keeps behind its
// entries for snapshots (SetPinned). It walks every entry.
func (m *Memtable) Kept() int {
	n := 0
	it := m.list.NewIterator()
	for it.Next() {
		for v := it.Value().older; v != nil; v = v.older {
			n++
		}
	}
	return n
}

// Iter is a streaming iterator over the memtable in ascending key order.
// It is safe to use while the memtable is still receiving writes and
// takes no lock. Skiplist nodes are never removed, so a held position
// stays valid across concurrent inserts. Keys inserted mid-iteration
// behind the current position are not revisited; updates ahead of it are
// observed with their new sequence number — callers needing a
// point-in-time view read each entry's version At their sequence (the
// snapshot layer does).
type Iter struct {
	it  *skiplist.Iterator[Entry]
	cur *Entry
}

// NewIter returns an iterator positioned before the first entry.
func (m *Memtable) NewIter() *Iter {
	return &Iter{it: m.list.NewIterator()}
}

// Next advances and reports whether an entry is available.
func (it *Iter) Next() bool {
	if !it.it.Next() {
		return false
	}
	it.cur = it.it.Value()
	return true
}

// SeekGE positions at the first entry with key >= key.
func (it *Iter) SeekGE(key []byte) bool {
	if !it.it.SeekGE(key) {
		return false
	}
	it.cur = it.it.Value()
	return true
}

// Entry returns a copy of the current entry (valid after a true
// Next/SeekGE): the version that was current when the iterator reached it.
func (it *Iter) Entry() Entry { return *it.cur }

// At is Entry.At of the current entry.
func (it *Iter) At(seq uint64) (*Entry, bool) { return it.cur.At(seq) }

// HotPolicy selects how SeparateKeys picks hot entries.
type HotPolicy uint8

const (
	// HotTopK keeps the K most-updated entries (Algorithm 2,
	// separateKeys, with K derived from a fraction of the memtable).
	HotTopK HotPolicy = iota
	// HotAboveMean keeps entries updated strictly more often than the
	// mean update frequency — the variant §4.1 reports "is effective in
	// all workloads", and the one the engine uses.
	HotAboveMean
)

// meanUpdates is the above-mean rule for one state of the memtable: the
// sum of its update counters over its entry count.
type meanUpdates struct{ updates, entries uint64 }

func (m *Memtable) meanUpdates() meanUpdates {
	var r meanUpdates
	it := m.list.NewIterator()
	for it.Next() {
		r.updates += uint64(it.Value().Updates)
		r.entries++
	}
	return r
}

// hot reports whether e was updated strictly more often than the mean.
func (r meanUpdates) hot(e *Entry) bool { return uint64(e.Updates)*r.entries > r.updates }

// ColdBytes reports how much of ApproxSize a flush would send to L0 now:
// the accounted size of the entries SeparateKeys(HotAboveMean, _) would
// return as Cold. It walks the entries twice and changes nothing.
func (m *Memtable) ColdBytes() int64 {
	rule := m.meanUpdates()
	var n int64
	it := m.list.NewIterator()
	for it.Next() {
		if e := it.Value(); !rule.hot(e) {
			n += e.size()
		}
	}
	return n
}

// Separation is the result of hot/cold key separation.
type Separation struct {
	Hot  []*Entry // stay in memory, re-logged to the fresh commit log
	Cold []*Entry // flushed to L0, ascending key order
}

// SeparateKeys splits the (sealed) memtable into hot and cold entry sets
// per Algorithm 2. hotFraction bounds the hot set to that fraction of the
// entry count when policy is HotTopK. Update counters of the hot survivors
// are reset ("Reset hotness").
//
// Resetting a counter publishes a fresh copy of the entry, so readers that
// captured this memtable before it was sealed (the TRIAD-MEM compaction
// skip check) are not disturbed.
func (m *Memtable) SeparateKeys(policy HotPolicy, hotFraction float64) Separation {
	var hot func(*Entry) bool
	if policy == HotTopK {
		hot = m.topK(hotFraction)
	} else {
		hot = m.meanUpdates().hot
	}
	var sep Separation
	it := m.list.NewIterator()
	for it.Next() {
		e := it.Value()
		if !hot(e) {
			sep.Cold = append(sep.Cold, e)
			continue
		}
		reset := *e
		reset.Updates = 0 // reset hotness
		it.Set(&reset)
		sep.Hot = append(sep.Hot, &reset)
	}
	return sep
}

// topK is the HotTopK rule: the hotFraction of the entries updated most
// often, earlier keys first among equals. Entries updated exactly once
// were never re-written; keeping them hot buys nothing and costs
// write-back, so the hot set stops at the first single-update entry.
func (m *Memtable) topK(hotFraction float64) func(*Entry) bool {
	byUpdates := m.All()
	k := int(float64(len(byUpdates)) * hotFraction)
	sort.SliceStable(byUpdates, func(i, j int) bool {
		return byUpdates[i].Updates > byUpdates[j].Updates
	})
	for k > 0 && byUpdates[k-1].Updates <= 1 {
		k--
	}
	if k <= 0 {
		return func(*Entry) bool { return false }
	}
	// The k-th entry closes the hot set: everything updated more often is
	// in, and of its equals those whose keys sort at or before its own.
	last := byUpdates[k-1]
	return func(e *Entry) bool {
		return e.Updates > last.Updates || (e.Updates == last.Updates && bytes.Compare(e.Key, last.Key) <= 0)
	}
}
