package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/histogram"
)

func TestHistBasic(t *testing.T) {
	h := NewHist()
	ds := []time.Duration{
		0, time.Nanosecond, 100 * time.Nanosecond,
		time.Microsecond, 17 * time.Microsecond,
		time.Millisecond, 250 * time.Millisecond, time.Second,
	}
	var sum time.Duration
	for _, d := range ds {
		h.Record(d)
		sum += d
	}
	if got := h.Count(); got != uint64(len(ds)) {
		t.Fatalf("Count = %d, want %d", got, len(ds))
	}
	if got := h.Sum(); got != sum {
		t.Fatalf("Sum = %v, want %v", got, sum)
	}
	snap := h.Snapshot()
	if snap.Count() != uint64(len(ds)) {
		t.Fatalf("snapshot Count = %d, want %d", snap.Count(), len(ds))
	}
	if snap.Min() != 0 {
		t.Fatalf("snapshot Min = %v, want 0", snap.Min())
	}
	if snap.Max() != time.Second {
		t.Fatalf("snapshot Max = %v, want 1s", snap.Max())
	}
	// Quantiles must live inside the recorded range.
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		v := snap.Quantile(q)
		if v < 0 || v > time.Second {
			t.Fatalf("Quantile(%g) = %v outside [0, 1s]", q, v)
		}
	}
}

// TestHistConcurrent hammers one recorder from many goroutines while a
// scraper takes snapshots; run under -race this is the data-race proof,
// and the final counts must be exact.
func TestHistConcurrent(t *testing.T) {
	h := NewHist()
	const (
		workers = 8
		perW    = 20000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var scr sync.WaitGroup
	scr.Add(1)
	go func() {
		defer scr.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := h.Snapshot()
			if c := snap.Count(); c > workers*perW {
				t.Errorf("snapshot count %d exceeds total recorded %d", c, workers*perW)
				return
			}
			_ = snap.Quantile(0.99)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Record(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scr.Wait()
	if got := h.Count(); got != workers*perW {
		t.Fatalf("Count = %d, want %d", got, workers*perW)
	}
	snap := h.Snapshot()
	if got := snap.Count(); got != workers*perW {
		t.Fatalf("snapshot Count = %d, want %d", got, workers*perW)
	}
}

// TestHistQuantileMonotonic property-checks that for any recorded set,
// quantiles are monotone in q and bracketed by min/max.
func TestHistQuantileMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHist()
		for _, v := range raw {
			h.Record(time.Duration(v))
		}
		snap := h.Snapshot()
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
		prev := time.Duration(-1)
		for _, q := range qs {
			v := snap.Quantile(q)
			if v < prev {
				return false
			}
			if v < snap.Min() || v > snap.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHistMergeDisjoint records two disjoint duration ranges into two
// recorders and checks the merged histogram sees both populations.
func TestHistMergeDisjoint(t *testing.T) {
	lo, hi := NewHist(), NewHist()
	const n = 1000
	for i := 0; i < n; i++ {
		lo.Record(time.Duration(1+i) * time.Microsecond)       // 1µs..1ms
		hi.Record(time.Duration(1+i) * 100 * time.Microsecond) // 100µs..100ms
	}
	a, b := lo.Snapshot(), hi.Snapshot()
	var m histogram.H
	m.Merge(&a)
	m.Merge(&b)
	if m.Count() != 2*n {
		t.Fatalf("merged Count = %d, want %d", m.Count(), 2*n)
	}
	if m.Min() != a.Min() {
		t.Fatalf("merged Min = %v, want %v", m.Min(), a.Min())
	}
	if m.Max() != b.Max() {
		t.Fatalf("merged Max = %v, want %v", m.Max(), b.Max())
	}
	// The median must sit between the two populations' medians.
	if p50 := m.Quantile(0.5); p50 < a.Quantile(0.25) || p50 > b.Quantile(0.75) {
		t.Fatalf("merged p50 %v outside plausible band [%v, %v]",
			p50, a.Quantile(0.25), b.Quantile(0.75))
	}
}

// TestHistRecordAllocs is the hot-path guard: Record must not allocate.
func TestHistRecordAllocs(t *testing.T) {
	h := NewHist()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(123 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per call, want 0", allocs)
	}
}

func TestJournalRing(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Add(Event{Kind: EventFlush, In: int64(i), Level: -1})
	}
	if j.Total() != 10 {
		t.Fatalf("Total = %d, want 10", j.Total())
	}
	evs := j.Events(0)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Newest first: In = 9, 8, 7, 6; Seq stamped monotonically.
	for i, e := range evs {
		if want := int64(9 - i); e.In != want {
			t.Fatalf("evs[%d].In = %d, want %d", i, e.In, want)
		}
		if want := uint64(10 - i); e.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Time.IsZero() {
			t.Fatalf("evs[%d].Time not stamped", i)
		}
	}
	if evs2 := j.Events(2); len(evs2) != 2 || evs2[0].Seq != 10 {
		t.Fatalf("Events(2) = %v", evs2)
	}
	var nilJ *Journal
	nilJ.Add(Event{})
	if nilJ.Total() != 0 || nilJ.Events(0) != nil {
		t.Fatal("nil Journal retained events")
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Seq: 3, Time: time.Date(2026, 8, 8, 12, 30, 45, 123e6, time.UTC),
		Kind: EventCompaction, Shard: 2, Level: 1,
		Dur: 42 * time.Millisecond, In: 2048, Out: 1024, Files: 5,
		Detail: "L1->L2",
	}
	s := e.String()
	for _, want := range []string{"#3", "compaction", "shard=2", "L1", "in=2048B", "out=1024B", "files=5", "L1->L2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String() = %q missing %q", s, want)
		}
	}
	stall := Event{Seq: 1, Kind: EventStall, Level: -1, Dur: time.Millisecond}
	if s := stall.String(); strings.Contains(s, "in=") || strings.Contains(s, "L-1") {
		t.Fatalf("stall String() = %q carries inapplicable fields", s)
	}
}

func TestSlowLog(t *testing.T) {
	l := NewSlowLog(3, time.Millisecond)
	l.Observe("get", []byte("fast"), 10*time.Microsecond, 0) // below threshold
	if l.Total() != 0 {
		t.Fatal("fast command was logged")
	}
	for i := 0; i < 5; i++ {
		l.Observe("set", []byte(fmt.Sprintf("key-%d", i)), time.Duration(i+2)*time.Millisecond, 0)
	}
	if l.Total() != 5 {
		t.Fatalf("Total = %d, want 5", l.Total())
	}
	es := l.Entries(0)
	if len(es) != 3 {
		t.Fatalf("retained %d entries, want 3", len(es))
	}
	if es[0].Key != "key-4" || es[0].ID != 5 || es[2].Key != "key-2" {
		t.Fatalf("Entries = %v", es)
	}
	// Long keys are truncated to a preview.
	l.Observe("set", []byte(strings.Repeat("x", 500)), time.Second, 0)
	if got := l.Entries(1)[0]; len(got.Key) != maxSlowKeyBytes {
		t.Fatalf("key preview len = %d, want %d", len(got.Key), maxSlowKeyBytes)
	}
	l.Reset()
	if len(l.Entries(0)) != 0 {
		t.Fatal("Reset left entries behind")
	}
	if l.Total() != 6 {
		t.Fatalf("Total after Reset = %d, want 6 (lifetime)", l.Total())
	}
	// IDs keep counting after Reset.
	l.Observe("del", nil, time.Second, 0)
	if es := l.Entries(0); len(es) != 1 || es[0].ID != 7 {
		t.Fatalf("post-Reset Entries = %v", es)
	}
}

func TestPromHistogramFormat(t *testing.T) {
	h := NewHist()
	h.Record(3 * time.Microsecond)
	h.Record(700 * time.Microsecond)
	h.Record(20 * time.Millisecond)
	h.Record(30 * time.Second) // beyond the last bound → only +Inf
	var b strings.Builder
	p := NewProm(&b)
	p.Histogram("triad_cmd_latency_seconds", "help text", `cmd="get"`, h)
	out := b.String()
	for _, want := range []string{
		"# HELP triad_cmd_latency_seconds help text",
		"# TYPE triad_cmd_latency_seconds histogram",
		`triad_cmd_latency_seconds_bucket{cmd="get",le="+Inf"} 4`,
		`triad_cmd_latency_seconds_sum{cmd="get"}`,
		`triad_cmd_latency_seconds_count{cmd="get"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and monotone, ending at the count.
	var prev uint64
	var buckets int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "triad_cmd_latency_seconds_bucket") {
			continue
		}
		buckets++
		var v uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not monotone at %q", line)
		}
		prev = v
	}
	if buckets != len(LatencyBuckets)+1 {
		t.Fatalf("emitted %d bucket lines, want %d", buckets, len(LatencyBuckets)+1)
	}
	if prev != 4 {
		t.Fatalf("final cumulative bucket = %d, want 4", prev)
	}
	// The 30s observation must not land in any finite bucket (largest is 10).
	if strings.Contains(out, `le="10"} 4`) {
		t.Fatal("out-of-range observation counted in finite bucket")
	}

	// HELP/TYPE emitted once even when the name repeats with new labels.
	p.Histogram("triad_cmd_latency_seconds", "help text", `cmd="set"`, nil)
	if n := strings.Count(b.String(), "# TYPE triad_cmd_latency_seconds histogram"); n != 1 {
		t.Fatalf("TYPE line emitted %d times, want 1", n)
	}
}

func TestPromScalars(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Counter("triad_things_total", "things", "", 7)
	p.Gauge("triad_level", "level", `shard="1"`, -2)
	p.GaugeF("triad_ratio", "ratio", "", 1.5)
	out := b.String()
	for _, want := range []string{
		"# TYPE triad_things_total counter",
		"triad_things_total 7",
		"# TYPE triad_level gauge",
		`triad_level{shard="1"} -2`,
		"triad_ratio 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestFamilyStageNames(t *testing.T) {
	wantFam := []string{"get", "set", "del", "mget", "mset", "scan"}
	for f := FamGet; f < NumFamilies; f++ {
		if f.String() != wantFam[f] {
			t.Fatalf("Family(%d).String() = %q, want %q", f, f, wantFam[f])
		}
	}
	wantStage := []string{"coalesce", "epoch_wait", "commit", "reply_flush"}
	for s := StageCoalesce; s < NumStages; s++ {
		if s.String() != wantStage[s] {
			t.Fatalf("Stage(%d).String() = %q, want %q", s, s, wantStage[s])
		}
	}
}

func TestSnapshotMinMaxExact(t *testing.T) {
	h := NewHist()
	h.Record(1234 * time.Nanosecond)
	h.Record(777 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Min() != 1234*time.Nanosecond {
		t.Fatalf("Min = %v, want 1.234µs exact", snap.Min())
	}
	if snap.Max() != 777*time.Millisecond {
		t.Fatalf("Max = %v, want 777ms exact", snap.Max())
	}
	if math.IsNaN(float64(snap.Mean())) {
		t.Fatal("Mean NaN")
	}
}

func BenchmarkHistRecord(b *testing.B) {
	h := NewHist()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 100 * time.Microsecond
		for pb.Next() {
			h.Record(d)
		}
	})
}
