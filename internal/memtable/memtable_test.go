package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/base"
)

func put(m *Memtable, key, val string, seq uint64) {
	m.Set([]byte(key), []byte(val), seq, base.KindSet, 1, int64(seq)*100)
}

func TestSetGet(t *testing.T) {
	m := New(1)
	put(m, "a", "1", 1)
	e, ok := m.Get([]byte("a"))
	if !ok || string(e.Value) != "1" || e.Updates != 1 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := m.Get([]byte("b")); ok {
		t.Fatal("Get of absent key returned ok")
	}
}

func TestInPlaceUpdateIncrementsCounter(t *testing.T) {
	m := New(1)
	for i := 1; i <= 5; i++ {
		put(m, "hot", fmt.Sprint(i), uint64(i))
	}
	e, _ := m.Get([]byte("hot"))
	if e.Updates != 5 {
		t.Fatalf("Updates = %d, want 5", e.Updates)
	}
	if string(e.Value) != "5" || e.Seq != 5 {
		t.Fatalf("value/seq = %q/%d, want 5/5", e.Value, e.Seq)
	}
	if e.LogOffset != 500 {
		t.Fatalf("LogOffset = %d, want most recent (500)", e.LogOffset)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (in-place)", m.Len())
	}
}

func TestSizeTracksValueGrowth(t *testing.T) {
	m := New(1)
	put(m, "k", "short", 1)
	s1 := m.ApproxSize()
	put(m, "k", "a-much-longer-value-now", 2)
	if m.ApproxSize() <= s1 {
		t.Fatal("size did not grow with larger value")
	}
	put(m, "k", "s", 3)
	if m.ApproxSize() >= s1 {
		t.Fatal("size did not shrink with smaller value")
	}
}

func TestTombstone(t *testing.T) {
	m := New(1)
	put(m, "k", "v", 1)
	m.Set([]byte("k"), nil, 2, base.KindDelete, 1, 0)
	e, ok := m.Get([]byte("k"))
	if !ok || e.Kind != base.KindDelete {
		t.Fatalf("tombstone lookup = %+v, %v", e, ok)
	}
	if e.Updates != 2 {
		t.Fatalf("Updates = %d, want 2 (delete counts as update)", e.Updates)
	}
}

func TestAllSorted(t *testing.T) {
	m := New(1)
	for _, k := range []string{"d", "a", "c", "b"} {
		put(m, k, k, 1)
	}
	all := m.All()
	want := []string{"a", "b", "c", "d"}
	if len(all) != 4 {
		t.Fatalf("All returned %d entries", len(all))
	}
	for i, e := range all {
		if string(e.Key) != want[i] {
			t.Fatalf("All[%d] = %q, want %q", i, e.Key, want[i])
		}
	}
}

// TestSetPinnedKeepsWhatSnapshotsRead overwrites a few keys while
// snapshots open at the current sequence and close at random. After every
// write, each open snapshot reads through At the newest version at or
// below its sequence; the written key keeps no more versions behind it
// than there are open snapshots below its sequence; and no version
// published before the write changed.
func TestSetPinnedKeepsWhatSnapshotsRead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(1)
	keys := []string{"a", "b", "c"}
	history := map[string][]uint64{} // the sequences written, ascending
	var pinned []uint64
	for seq := uint64(1); seq <= 2000; seq++ {
		switch r := rng.Intn(10); {
		case r < 2:
			pinned = append(pinned, seq-1) // already ascending
		case r < 4 && len(pinned) > 0:
			i := rng.Intn(len(pinned))
			pinned = append(pinned[:i], pinned[i+1:]...)
		}
		k := keys[rng.Intn(len(keys))]
		var before []Entry
		cur, _ := m.Get([]byte(k))
		for v := cur.older; v != nil; v = v.older {
			before = append(before, *v)
		}
		m.SetPinned([]byte(k), []byte(fmt.Sprint(seq)), seq, base.KindSet, 1, 0, pinned)
		history[k] = append(history[k], seq)

		i := 0
		for v := cur.older; v != nil; v = v.older {
			if !reflect.DeepEqual(*v, before[i]) {
				t.Fatalf("seq %d: a published version of %s changed", seq, k)
			}
			i++
		}
		e, _ := m.Get([]byte(k))
		if n := len(chain(&e)) - 1; n > len(pinned) {
			t.Fatalf("seq %d: %s keeps %d versions for %d snapshots", seq, k, n, len(pinned))
		}
		for _, k := range keys {
			e, ok := m.Get([]byte(k))
			if !ok {
				continue
			}
			for _, p := range pinned {
				want := uint64(0)
				for _, s := range history[k] {
					if s <= p {
						want = s
					}
				}
				v, ok := e.At(p)
				if got := uint64(0); ok != (want != 0) || ok && v.Seq != want {
					if ok {
						got = v.Seq
					}
					t.Fatalf("seq %d: %s at %d reads version %d, want %d", seq, k, p, got, want)
				}
				if ok && string(v.Value) != fmt.Sprint(want) {
					t.Fatalf("seq %d: %s at %d reads value %q, want %d", seq, k, p, v.Value, want)
				}
			}
		}
	}
}

// TestPinnedVersionsWhileOverwritten: readers at three pinned sequences
// read through At the version each pinned, while one writer overwrites
// every key round after round and the pins are taken under it.
func TestPinnedVersionsWhileOverwritten(t *testing.T) {
	const keys, rounds, readers, pins = 50, 300, 3, 3
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i)) }
	// Round r (from 1) writes key i at (r-1)*keys+i+1; the pin taken after
	// round r is at r*keys and reads round r's versions.
	seqOf := func(r, i int) uint64 { return uint64((r-1)*keys + i + 1) }
	m := New(1)
	var published atomic.Int32 // pins taken so far
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int(published.Load())
				if n == 0 {
					continue
				}
				round, i := 1+rng.Intn(n), rng.Intn(keys)
				e, _ := m.Get(key(i))
				v, ok := e.At(uint64(round * keys))
				if want := seqOf(round, i); !ok || v.Seq != want || string(v.Value) != fmt.Sprint(want) {
					t.Errorf("key %d at pin %d: %+v, %v; want version %d", i, round, v, ok, want)
					return
				}
			}
		}(r)
	}
	var pinned []uint64
	for r := 1; r <= rounds; r++ {
		for i := 0; i < keys; i++ {
			seq := seqOf(r, i)
			m.SetPinned(key(i), []byte(fmt.Sprint(seq)), seq, base.KindSet, 1, 0, pinned)
		}
		if r <= pins {
			pinned = append(pinned, uint64(r*keys))
			published.Store(int32(r))
		}
	}
	close(stop)
	wg.Wait()
	if n := m.Kept(); n != keys*pins {
		t.Fatalf("Kept = %d, want %d: one version per key for each pin", n, keys*pins)
	}
}

// TestSetKeepsNoVersion: with no snapshot, an overwrite leaves nothing
// behind, and Kept counts what SetPinned leaves.
func TestSetKeepsNoVersion(t *testing.T) {
	m := New(1)
	for seq := uint64(1); seq <= 10; seq++ {
		put(m, "k", fmt.Sprint(seq), seq)
	}
	if n := m.Kept(); n != 0 {
		t.Fatalf("Kept = %d after plain overwrites, want 0", n)
	}
	m.SetPinned([]byte("k"), []byte("11"), 11, base.KindSet, 1, 0, []uint64{3, 10})
	m.SetPinned([]byte("j"), []byte("12"), 12, base.KindSet, 1, 0, []uint64{3, 10})
	if n := m.Kept(); n != 1 {
		t.Fatalf("Kept = %d, want 1: the version read at 10 (nothing of k is at or below 3)", n)
	}
	put(m, "k", "13", 13)
	if n := m.Kept(); n != 0 {
		t.Fatalf("Kept = %d after an overwrite with no snapshot, want 0", n)
	}
}

// chain lists e and the versions kept behind it, newest first.
func chain(e *Entry) []*Entry {
	var out []*Entry
	for v := e; v != nil; v = v.older {
		out = append(out, v)
	}
	return out
}

func makeSkewed(t *testing.T) *Memtable {
	t.Helper()
	m := New(1)
	seq := uint64(0)
	// 10 hot keys updated 20x each, 90 cold keys written once.
	for round := 0; round < 20; round++ {
		for h := 0; h < 10; h++ {
			seq++
			put(m, fmt.Sprintf("hot%02d", h), fmt.Sprint(round), seq)
		}
	}
	for c := 0; c < 90; c++ {
		seq++
		put(m, fmt.Sprintf("cold%02d", c), "v", seq)
	}
	return m
}

func TestSeparateKeysTopK(t *testing.T) {
	m := makeSkewed(t)
	sep := m.SeparateKeys(HotTopK, 0.10) // top 10% of 100 entries = 10
	if len(sep.Hot) != 10 {
		t.Fatalf("hot = %d, want 10", len(sep.Hot))
	}
	if len(sep.Cold) != 90 {
		t.Fatalf("cold = %d, want 90", len(sep.Cold))
	}
	for _, e := range sep.Hot {
		if string(e.Key[:3]) != "hot" {
			t.Fatalf("cold key %q classified hot", e.Key)
		}
		if e.Updates != 0 {
			t.Fatalf("hot key %q hotness not reset: %d", e.Key, e.Updates)
		}
	}
	// Cold output must be sorted (it feeds the SSTable writer).
	for i := 1; i < len(sep.Cold); i++ {
		if string(sep.Cold[i-1].Key) >= string(sep.Cold[i].Key) {
			t.Fatal("cold entries not sorted")
		}
	}
}

func TestSeparateKeysAboveMean(t *testing.T) {
	m := makeSkewed(t)
	sep := m.SeparateKeys(HotAboveMean, 0)
	// Mean updates = (10*20 + 90*1)/100 = 2.9; only the 20x keys exceed it.
	if len(sep.Hot) != 10 {
		t.Fatalf("hot = %d, want 10", len(sep.Hot))
	}
}

func TestSeparateKeysSingleUpdateNeverHot(t *testing.T) {
	m := New(1)
	for i := 0; i < 100; i++ {
		put(m, fmt.Sprintf("%02d", i), "v", uint64(i+1))
	}
	sep := m.SeparateKeys(HotTopK, 0.5)
	if len(sep.Hot) != 0 {
		t.Fatalf("uniform single-write memtable produced %d hot keys, want 0", len(sep.Hot))
	}
	if len(sep.Cold) != 100 {
		t.Fatalf("cold = %d, want 100", len(sep.Cold))
	}
}

func TestSeparateKeysEmpty(t *testing.T) {
	m := New(1)
	sep := m.SeparateKeys(HotTopK, 0.5)
	if sep.Hot != nil || sep.Cold != nil {
		t.Fatal("empty memtable separation returned entries")
	}
}

func TestSeparateKeysZeroFraction(t *testing.T) {
	m := makeSkewed(t)
	sep := m.SeparateKeys(HotTopK, 0)
	if len(sep.Hot) != 0 || len(sep.Cold) != 100 {
		t.Fatalf("zero fraction: hot=%d cold=%d", len(sep.Hot), len(sep.Cold))
	}
}

// TestOneWriterManyReaders is the memtable's concurrency contract, run
// under -race in CI: one goroutine writes (Set, tombstones, Relog,
// SeparateKeys) while readers and an iterator run free. Every version the
// writer publishes carries its sequence in its value and in its log
// offset, so a reader can tell a torn entry — the value of one version
// with the sequence or log position of another — from a whole one. At
// the end the table must equal the writer's map oracle, update counters
// included.
func TestOneWriterManyReaders(t *testing.T) {
	const keys, writes, readers = 200, 30000, 3
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	// whole reports whether e is exactly one published version.
	whole := func(e Entry) error {
		switch {
		case e.Kind == base.KindSet && string(e.Value) != fmt.Sprint(e.Seq):
			return fmt.Errorf("key %q: value %q with seq %d", e.Key, e.Value, e.Seq)
		case e.Kind == base.KindDelete && e.Value != nil:
			return fmt.Errorf("key %q: tombstone seq %d with value %q", e.Key, e.Seq, e.Value)
		// Set logs into log 1; Relog carries log 1's entries into log 2 and
		// log 2's into log 3.
		case e.LogID < 1 || e.LogID > 3 || e.LogOffset != int64(e.Seq)*100+int64(e.LogID-1):
			return fmt.Errorf("key %q: seq %d at log %d offset %d", e.Key, e.Seq, e.LogID, e.LogOffset)
		}
		return nil
	}

	m := New(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			lastSeq := make([]uint64, keys)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				e, ok := m.Get(key(i))
				if !ok {
					if lastSeq[i] != 0 {
						t.Errorf("key %d vanished after seq %d", i, lastSeq[i])
						return
					}
					continue
				}
				if err := whole(e); err != nil {
					t.Error(err)
					return
				}
				if e.Seq < lastSeq[i] {
					t.Errorf("key %d went back from seq %d to %d", i, lastSeq[i], e.Seq)
					return
				}
				lastSeq[i] = e.Seq
			}
		}(r)
	}
	wg.Add(1)
	go func() { // the iterator
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			it := m.NewIter()
			var prev []byte
			for it.Next() {
				e := it.Entry()
				if err := whole(e); err != nil {
					t.Error(err)
					return
				}
				if prev != nil && bytes.Compare(e.Key, prev) <= 0 {
					t.Errorf("iterator out of order: %q after %q", e.Key, prev)
					return
				}
				prev = e.Key
			}
		}
	}()

	type version struct {
		seq     uint64
		kind    base.Kind
		updates uint32
		logID   uint64
	}
	oracle := map[string]*version{}
	rng := rand.New(rand.NewSource(42))
	write := func(seq uint64) error {
		k := key(rng.Intn(keys))
		v := oracle[string(k)]
		if v == nil {
			v = &version{}
			oracle[string(k)] = v
		}
		switch op := rng.Intn(100); {
		case op < 80:
			m.Set(k, []byte(fmt.Sprint(seq)), seq, base.KindSet, 1, int64(seq)*100)
			*v = version{seq: seq, kind: base.KindSet, updates: v.updates + 1, logID: 1}
		case op < 90:
			m.Set(k, nil, seq, base.KindDelete, 1, int64(seq)*100)
			*v = version{seq: seq, kind: base.KindDelete, updates: v.updates + 1, logID: 1}
		case op < 99:
			if v.seq == 0 {
				delete(oracle, string(k))
			}
			// Only the entries still in log from move; the rest stay put.
			from := uint64(1 + rng.Intn(2))
			var offs []int64
			for _, e := range m.All() {
				if e.LogID == from {
					offs = append(offs, int64(e.Seq)*100+int64(from))
					oracle[string(e.Key)].logID = from + 1
				}
			}
			m.Relog([]uint64{from}, from+1, offs)
		default:
			sep := m.SeparateKeys(HotAboveMean, 0)
			if len(sep.Hot)+len(sep.Cold) != m.Len() {
				return fmt.Errorf("separation of %d entries returned %d hot + %d cold", m.Len(), len(sep.Hot), len(sep.Cold))
			}
			for _, h := range sep.Hot {
				if h.Updates != 0 {
					return fmt.Errorf("hot key %q not reset: %d", h.Key, h.Updates)
				}
				oracle[string(h.Key)].updates = 0
			}
			if v.seq == 0 {
				delete(oracle, string(k))
			}
		}
		return nil
	}
	var err error
	for seq := uint64(1); seq <= writes && err == nil; seq++ {
		err = write(seq)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if m.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", m.Len(), len(oracle))
	}
	for _, e := range m.All() {
		v := oracle[string(e.Key)]
		if err := whole(*e); err != nil {
			t.Fatal(err)
		}
		if v == nil || e.Seq != v.seq || e.Kind != v.kind || e.Updates != v.updates || e.LogID != v.logID {
			t.Fatalf("key %q: table has %+v, oracle %+v", e.Key, *e, v)
		}
	}
}

// TestColdBytesIsWhatSeparationFlushes: over random update histories,
// ColdBytes — what the engine holds against FLUSH_TH — is the accounted
// size of exactly the entries SeparateKeys(HotAboveMean) hands to the
// flush, hot and cold together account for ApproxSize, and both stay true
// once a separation has reset the survivors' counters and after further
// updates land on top of the reset ones.
func TestColdBytesIsWhatSeparationFlushes(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(seed)
		keys, seq := 1+rng.Intn(300), uint64(0)
		write := func(n int) {
			for i := 0; i < n; i++ {
				k := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					k = rng.Intn(1 + keys/10) // half the writes go to a tenth of the keys
				}
				seq++
				if rng.Intn(10) == 0 {
					m.Set([]byte(fmt.Sprintf("key-%04d", k)), nil, seq, base.KindDelete, 1, int64(seq))
				} else {
					m.Set([]byte(fmt.Sprintf("key-%04d", k)), make([]byte, rng.Intn(200)), seq, base.KindSet, 1, int64(seq))
				}
			}
		}
		check := func(when string) {
			t.Helper()
			want := m.ColdBytes()
			sep := m.SeparateKeys(HotAboveMean, 0)
			var cold, hot int64
			for _, e := range sep.Cold {
				cold += e.size()
			}
			for _, e := range sep.Hot {
				hot += e.size()
			}
			if cold != want {
				t.Fatalf("seed %d, %s: ColdBytes = %d, separation flushes %d (%d cold / %d hot entries)",
					seed, when, want, cold, len(sep.Cold), len(sep.Hot))
			}
			if cold+hot != m.ApproxSize() {
				t.Fatalf("seed %d, %s: cold %d + hot %d != ApproxSize %d", seed, when, cold, hot, m.ApproxSize())
			}
		}
		check("empty")
		write(rng.Intn(3000))
		check("first separation")
		check("counters just reset")
		write(rng.Intn(3000))
		check("updates on top of reset counters")
	}
}

// TestRelogMovesOneLogsEntries: Relog re-points the entries of one log, in
// key order, and touches nothing else — neither their other fields nor the
// entries of any other log.
func TestRelogMovesOneLogsEntries(t *testing.T) {
	m := makeSkewed(t)
	for i, e := range m.All() { // every third entry was last written to log 7
		if i%3 == 0 {
			m.Set(e.Key, e.Value, e.Seq, e.Kind, 7, int64(i))
		}
	}
	before := m.All()
	var offs []int64
	for i, e := range before {
		if e.LogID == 7 {
			offs = append(offs, int64(1000+i))
		}
	}
	m.Relog([]uint64{7}, 9, offs)
	for i, e := range m.All() {
		want := *before[i]
		if want.LogID == 7 {
			want.LogID, want.LogOffset = 9, int64(1000+i)
		}
		if !reflect.DeepEqual(*e, want) {
			t.Fatalf("entry %d after Relog = %+v, want %+v", i, *e, want)
		}
	}
}

// TestOverwriteRetainsOneValue: overwriting one key leaves only the newest
// value reachable. Every write publishes a fresh copy-on-write Entry, and
// once replaced, it and the value it held are garbage: the skiplist's
// slabs hold nodes and keys, never versions.
func TestOverwriteRetainsOneValue(t *testing.T) {
	m := New(1)
	key := []byte("hot")
	overwrite := func(i int) {
		m.Set(key, make([]byte, 4<<10), uint64(i), base.KindSet, 1, int64(i))
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	overwrite(1)
	once := heap()
	for i := 2; i <= 10000; i++ {
		overwrite(i)
	}
	if grew := heap() - once; grew > 1<<20 {
		t.Fatalf("10000 overwrites of a 4 KiB value left %d more bytes live than one", grew)
	}
	if e, ok := m.Get(key); !ok || e.Seq != 10000 || m.Len() != 1 {
		t.Fatalf("Get = %+v, %v with %d entries; want the last of 10000 writes", e, ok, m.Len())
	}
}

// TestContainsAscending: for keys asked in ascending order the lookup
// answers as Get does at the time of each call, also for a key inserted
// since the previous call between that key and the next one it held.
func TestContainsAscending(t *testing.T) {
	m := New(1)
	for _, k := range []string{"a", "c", "g"} {
		put(m, k, "v", 1)
	}
	has := m.ContainsAscending()
	for _, c := range []struct {
		key    string
		insert bool // insert key before asking
		want   bool
	}{
		{"a", false, true},
		{"b", false, false},
		{"d", true, true},
		{"e", false, false},
		{"f", true, true}, // between e, the last key asked, and g, the next held
		{"g", false, true},
		{"h", false, false},
	} {
		if c.insert {
			put(m, c.key, "v", 2)
		}
		if got := has([]byte(c.key)); got != c.want {
			t.Fatalf("ContainsAscending(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}
