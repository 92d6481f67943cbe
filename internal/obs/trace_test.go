package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerSampling(t *testing.T) {
	if tr := NewTracer(0, 8); tr != nil {
		t.Fatal("sample 0 should return a nil tracer")
	}
	if tr := NewTracer(-1, 8); tr != nil {
		t.Fatal("negative sample should return a nil tracer")
	}

	always := NewTracer(1, 8)
	for i := 0; i < 100; i++ {
		if always.Start("GET", []byte("k"), time.Now()) == nil {
			t.Fatal("sample 1 must sample every command")
		}
	}
	if got := always.Sampled(); got != 100 {
		t.Fatalf("Sampled = %d, want 100", got)
	}

	never := NewTracer(1e-18, 8)
	for i := 0; i < 10_000; i++ {
		if never.Start("GET", []byte("k"), time.Now()) != nil {
			t.Fatal("sample 1e-18 sampled a command (threshold mapping broken)")
		}
	}
}

// TestTracerNilSafety holds the nil-receiver contract of the types a
// caller that records nothing holds as nil. It calls every exported
// method of each with zero-valued arguments, so a method added later is
// covered without an edit here, then pins the results callers rely on.
func TestTracerNilSafety(t *testing.T) {
	for _, nilValue := range []any{(*Tracer)(nil), (*Trace)(nil), (*Journal)(nil), Traces(nil)} {
		v := reflect.ValueOf(nilValue)
		for i := 0; i < v.NumMethod(); i++ {
			name := fmt.Sprintf("%T.%s", nilValue, v.Type().Method(i).Name)
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on a nil receiver panics: %v", name, r)
					}
				}()
				if m.Type().IsVariadic() {
					m.CallSlice(args)
				} else {
					m.Call(args)
				}
			}()
		}
	}

	var tracer *Tracer
	if tr := tracer.Start("GET", []byte("k"), time.Now()); tr != nil {
		t.Fatal("nil tracer Start != nil")
	}
	if tracer.Sampled() != 0 || tracer.Finished() != 0 {
		t.Fatal("nil tracer counters nonzero")
	}
	if tracer.Recent(0) != nil || tracer.Get(1) != nil {
		t.Fatal("nil tracer returned traces")
	}

	var tr *Trace
	if tr.ID() != 0 || tr.Dur() != 0 || tr.Spans() != nil || tr.Tagged("L1") != nil {
		t.Fatal("nil trace accessors nonzero")
	}

	var j *Journal
	if j.Total() != 0 || j.Dropped() != 0 || j.Events(0) != nil {
		t.Fatal("nil journal accessors nonzero")
	}
}

// TestTraceUnsampledZeroAlloc is the acceptance guard for the hot path:
// an unsampled command must cost zero allocations at every trace point
// it crosses — the sampling decision, the nil-trace span calls and the
// nil-Traces fan-out.
func TestTraceUnsampledZeroAlloc(t *testing.T) {
	tracer := NewTracer(1e-18, 8) // live tracer, rejects ~everything
	begin := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		if tr := tracer.Start("SET", []byte("key"), begin); tr != nil {
			t.Fatal("sampled (astronomically unlikely; threshold mapping broken)")
		}
	}); n != 0 {
		t.Fatalf("unsampled Start allocates %v/op, want 0", n)
	}

	var tr *Trace
	if n := testing.AllocsPerRun(1000, func() {
		tr.SpanAt(SpanWALAppend, begin, time.Millisecond, "")
		tr.Tagged("L1").SpanAt(SpanSSTableRead, begin, time.Millisecond, "")
	}); n != 0 {
		t.Fatalf("nil-trace SpanAt allocates %v/op, want 0", n)
	}

	var trs Traces
	if n := testing.AllocsPerRun(1000, func() {
		trs.SpanAt(SpanCommit, begin, time.Millisecond, "")
	}); n != 0 {
		t.Fatalf("nil-Traces SpanAt allocates %v/op, want 0", n)
	}
}

func TestTraceSpansSortedAndClamped(t *testing.T) {
	tracer := NewTracer(1, 4)
	begin := time.Now()
	tr := tracer.Start("SET", []byte("k"), begin)

	// Record out of order, including a span "before" the trace began and
	// a negative duration — both must clamp to zero, never go negative.
	tr.SpanAt(SpanCommit, begin.Add(3*time.Millisecond), 2*time.Millisecond, "")
	tr.SpanAt(SpanDecode, begin.Add(-time.Second), -time.Minute, "early")
	tr.SpanAt(SpanCoalesce, begin.Add(time.Millisecond), time.Millisecond, "")
	tr.SpanAt(SpanWALAppend, begin.Add(3*time.Millisecond), time.Millisecond, "")

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Start < 0 || s.Dur < 0 {
			t.Fatalf("span %d has negative offset/duration: %+v", i, s)
		}
		if i > 0 && s.Start < spans[i-1].Start {
			t.Fatalf("spans not sorted by offset: %v then %v", spans[i-1], s)
		}
	}
	if spans[0].Kind != SpanDecode {
		t.Fatalf("first span = %s, want decode", spans[0].Kind)
	}
	// Same offset: kind order breaks the tie deterministically.
	if spans[2].Kind != SpanWALAppend || spans[3].Kind != SpanCommit {
		t.Fatalf("tie not broken by kind: %s, %s", spans[2].Kind, spans[3].Kind)
	}
}

func TestTracerRing(t *testing.T) {
	tracer := NewTracer(1, 3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		tr := tracer.Start("GET", []byte("k"), time.Now())
		ids = append(ids, tr.ID())
		tracer.Finish(tr)
		tracer.Finish(tr) // idempotent
	}
	if got := tracer.Finished(); got != 5 {
		t.Fatalf("Finished = %d, want 5 (double Finish must not double-count)", got)
	}
	recent := tracer.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("Recent(0) kept %d, want ring size 3", len(recent))
	}
	for i, tr := range recent {
		if want := ids[4-i]; tr.ID() != want {
			t.Fatalf("Recent[%d] = #%d, want #%d (newest first)", i, tr.ID(), want)
		}
	}
	if got := tracer.Recent(1); len(got) != 1 || got[0].ID() != ids[4] {
		t.Fatalf("Recent(1) = %v", got)
	}
	if tr := tracer.Get(ids[4]); tr == nil || tr.ID() != ids[4] {
		t.Fatal("Get missed a retained trace")
	}
	if tr := tracer.Get(ids[0]); tr != nil {
		t.Fatal("Get returned an overwritten trace")
	}
	if tr := tracer.Get(0); tr != nil {
		t.Fatal("Get(0) must be nil (0 is the no-trace id)")
	}

	// An unfinished trace is not in the ring.
	open := tracer.Start("GET", []byte("k"), time.Now())
	if tr := tracer.Get(open.ID()); tr != nil {
		t.Fatal("unfinished trace leaked into the ring")
	}
}

func TestTracesFanOut(t *testing.T) {
	tracer := NewTracer(1, 4)
	begin := time.Now()
	a := tracer.Start("SET", []byte("a"), begin)
	b := tracer.Start("SET", []byte("b"), begin)
	trs := Traces{a, b}
	trs.SpanAt(SpanWALAppend, begin, time.Millisecond, "shard 0")
	for _, tr := range []*Trace{a, b} {
		spans := tr.Spans()
		if len(spans) != 1 || spans[0].Kind != SpanWALAppend {
			t.Fatalf("fan-out missed trace #%d: %+v", tr.ID(), spans)
		}
	}
}

// TestTraceConcurrentRecordAndScrape drives span recording from many
// goroutines while readers render and scrape concurrently; run under
// -race this is the data-race guard for the trace plumbing.
func TestTraceConcurrentRecordAndScrape(t *testing.T) {
	tracer := NewTracer(1, 16)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range tracer.Recent(0) {
				_ = tr.Render()
				_ = tr.String()
				_ = tr.Spans()
				_ = tr.Dur()
			}
		}
	}()
	var writers sync.WaitGroup
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < 200; j++ {
				tr := tracer.Start("SET", []byte("key"), time.Now())
				var inner sync.WaitGroup
				for k := 0; k < 3; k++ {
					inner.Add(1)
					go func(k int) {
						defer inner.Done()
						tr.SpanAt(SpanKind(k), time.Now(), time.Microsecond, "concurrent")
					}(k)
				}
				inner.Wait()
				tracer.Finish(tr)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if tracer.Finished() != 800 {
		t.Fatalf("Finished = %d, want 800", tracer.Finished())
	}
}

// TestLedger: every attribution source has its own exposition name.
func TestLedger(t *testing.T) {
	seen := map[string]Source{}
	for s := Source(0); s < NumSources; s++ {
		name := s.String()
		if name == "other" {
			t.Fatalf("source %d has no name", s)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("sources %d and %d share the name %q", prev, s, name)
		}
		seen[name] = s
	}
}

func TestJournalDropped(t *testing.T) {
	j := NewJournal(4)
	if j.Dropped() != 0 {
		t.Fatal("fresh journal reports drops")
	}
	for i := 0; i < 3; i++ {
		j.Add(Event{Kind: EventFlush})
	}
	if j.Dropped() != 0 {
		t.Fatalf("Dropped = %d before the ring filled", j.Dropped())
	}
	for i := 0; i < 7; i++ {
		j.Add(Event{Kind: EventFlush})
	}
	if got := j.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6 (10 added, ring of 4)", got)
	}
	var nilJ *Journal
	if nilJ.Dropped() != 0 {
		t.Fatal("nil journal reports drops")
	}
}

func TestEscapeText(t *testing.T) {
	clean := "plain ASCII 0-9 {}"
	if got := EscapeText(clean); got != clean {
		t.Fatalf("clean text changed: %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { EscapeText(clean) }); n != 0 {
		t.Fatalf("clean EscapeText allocates %v/op, want 0", n)
	}
	if got := EscapeText("a\x00b\x1b[31mc\xff"); got != `a\x00b\x1b[31mc\xff` {
		t.Fatalf("escaped = %q", got)
	}

	// The escaping is applied by every rendering surface.
	ev := Event{Kind: EventFlush, Detail: "evil\x07detail"}
	if s := ev.String(); strings.Contains(s, "\x07") || !strings.Contains(s, `\x07`) {
		t.Fatalf("journal rendering leaked a control byte: %q", s)
	}
	log := NewSlowLog(4, 0)
	log.Observe("GET", []byte("k\x1b"), time.Second, 7)
	e := log.Entries(1)[0]
	if s := e.String(); strings.Contains(s, "\x1b") || !strings.Contains(s, `\x1b`) {
		t.Fatalf("slowlog rendering leaked a control byte: %q", s)
	}
	if !strings.Contains(e.String(), "trace=#7") {
		t.Fatalf("slow entry lost its trace link: %q", e.String())
	}
	tracer := NewTracer(1, 4)
	tr := tracer.Start("GET", []byte("k\x00ey"), time.Now())
	tr.Span(SpanSSTableRead, time.Now(), "blk\x01")
	tracer.Finish(tr)
	if s := tr.Render(); strings.ContainsAny(s, "\x00\x01") || !strings.Contains(s, `k\x00ey`) {
		t.Fatalf("trace rendering leaked a control byte: %q", s)
	}
}
