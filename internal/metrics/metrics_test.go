package metrics

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSnapshotAndDerived(t *testing.T) {
	var m Metrics
	m.UserBytes.Add(1000)
	m.UserWrites.Add(10)
	m.UserReads.Add(4)
	m.BytesLogged.Add(1000)
	m.BytesFlushed.Add(900)
	m.BytesCompacted.Add(2100)
	m.TableDiskReads.Add(12)
	m.FlushTime.Add(int64(200 * time.Millisecond))
	m.CompactionTime.Add(int64(300 * time.Millisecond))

	s := m.Snapshot()
	if got := s.WriteAmplification(); got != 4.0 {
		t.Fatalf("WA = %.2f, want 4.0", got)
	}
	// Paper formula: (flushed + compacted) / flushed.
	if got := s.FlushRelativeWA(); got < 3.33 || got > 3.34 {
		t.Fatalf("flush-relative WA = %.3f, want ≈3.333", got)
	}
	if got := s.ReadAmplification(); got != 3.0 {
		t.Fatalf("RA = %.2f, want 3.0", got)
	}
	if got := s.BackgroundTime(); got != 500*time.Millisecond {
		t.Fatalf("BackgroundTime = %v", got)
	}
	if got := s.PercentTimeInCompaction(time.Second); got != 30 {
		t.Fatalf("PctCompaction = %.1f, want 30", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var s Snapshot
	if s.WriteAmplification() != 0 || s.ReadAmplification() != 0 || s.FlushRelativeWA() != 0 {
		t.Fatal("zero-denominator metrics must be 0")
	}
	if s.PercentTimeInCompaction(0) != 0 {
		t.Fatal("zero elapsed must be 0")
	}
}

func TestSub(t *testing.T) {
	var m Metrics
	m.UserBytes.Add(100)
	m.Flushes.Add(1)
	before := m.Snapshot()
	m.UserBytes.Add(50)
	m.Flushes.Add(2)
	m.CompactionTime.Add(int64(time.Second))
	window := m.Snapshot().Sub(before)
	if window.UserBytes != 50 || window.Flushes != 2 {
		t.Fatalf("window = %+v", window)
	}
	if window.CompactionTime != time.Second {
		t.Fatalf("window compaction time = %v", window.CompactionTime)
	}
}

func TestConcurrentCounters(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.UserWrites.Add(1)
				m.UserBytes.Add(10)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.UserWrites != 8000 || s.UserBytes != 80000 {
		t.Fatalf("counters = %d/%d", s.UserWrites, s.UserBytes)
	}
}

// TestSnapshotAdd: Add is the shard roll-up; it must be counter-wise,
// invert Sub, and leave derived metrics computed on the aggregate.
func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{UserWrites: 10, UserBytes: 1000, BytesLogged: 500, BytesRelogged: 40,
		BytesFlushed: 300, BytesCompacted: 200, Flushes: 2,
		FlushTime: time.Second, HotKeysKeptInMem: 7}
	b := Snapshot{UserWrites: 5, UserBytes: 500, BytesLogged: 250, BytesRelogged: 20,
		BytesFlushed: 150, BytesCompacted: 100, Flushes: 1,
		FlushTime: 2 * time.Second, HotKeysKeptInMem: 3}
	sum := a.Add(b)
	if sum.UserWrites != 15 || sum.UserBytes != 1500 || sum.Flushes != 3 {
		t.Fatalf("Add: %+v", sum)
	}
	if sum.FlushTime != 3*time.Second || sum.HotKeysKeptInMem != 10 || sum.BytesRelogged != 60 {
		t.Fatalf("Add: %+v", sum)
	}
	if got := sum.Sub(b); got != a {
		t.Fatalf("Add then Sub != identity: %+v", got)
	}
	// Aggregate WA over the sum equals WA of the combined counters.
	if got := sum.WriteAmplification(); got != float64(750+450+300)/1500 {
		t.Fatalf("aggregate WA = %v", got)
	}
}

// TestMetricsMirrorSnapshot: Snapshot, Sub and Add go field by field, so
// Metrics must list Snapshot's fields, by name and in order, each an
// atomic.Int64 under an int64 (or time.Duration) — and then every counter
// reaches the snapshot as itself.
func TestMetricsMirrorSnapshot(t *testing.T) {
	var m Metrics
	mt, st := reflect.TypeFor[Metrics](), reflect.TypeFor[Snapshot]()
	if mt.NumField() != st.NumField() {
		t.Fatalf("Metrics has %d fields, Snapshot %d", mt.NumField(), st.NumField())
	}
	mv := reflect.ValueOf(&m).Elem()
	for i := range mt.NumField() {
		mf, sf := mt.Field(i), st.Field(i)
		if mf.Name != sf.Name || mf.Type != reflect.TypeFor[atomic.Int64]() || sf.Type.Kind() != reflect.Int64 {
			t.Fatalf("field %d: Metrics.%s %v, Snapshot.%s %v", i, mf.Name, mf.Type, sf.Name, sf.Type)
		}
		mv.Field(i).Addr().Interface().(*atomic.Int64).Add(int64(i + 1))
	}
	s := m.Snapshot()
	sv := reflect.ValueOf(s)
	for i := range sv.NumField() {
		if got := sv.Field(i).Int(); got != int64(i+1) {
			t.Fatalf("Snapshot.%s = %d, want %d", st.Field(i).Name, got, i+1)
		}
	}
	if got := s.Add(s).Sub(s); got != s {
		t.Fatalf("Add then Sub: %+v, want %+v", got, s)
	}
}
