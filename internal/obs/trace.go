package obs

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind names one timed segment of a traced request's life. The
// kinds cover both halves of the store: the server-side pipeline
// (decode, coalesce, epoch_wait, commit, reply_flush) and the engine
// work a request pays for directly (wal_append, memtable_apply,
// sstable_read, plus the read-your-writes barrier).
type SpanKind uint8

// The span kinds, roughly in request order.
const (
	// SpanDecode is socket wait + RESP parse: last reply handed off →
	// command dispatched.
	SpanDecode SpanKind = iota
	// SpanBarrier is a read's read-your-writes wait: blocking until every
	// write group the connection enqueued since its last read has
	// committed.
	SpanBarrier
	// SpanCoalesce is this op's enqueue into a write group → the group
	// detached for commit (the batching window).
	SpanCoalesce
	// SpanEpochWait is group detached → commit epoch assigned
	// (Prepare's validation, split, and stall absorption).
	SpanEpochWait
	// SpanWALAppend is the group's commit-log append time attributable
	// to the engine loop this op rode in.
	SpanWALAppend
	// SpanMemtableApply is the group's memtable insert time in the same
	// engine loop.
	SpanMemtableApply
	// SpanCommit is epoch assigned → group durable (turn wait + WAL +
	// memtable, end to end).
	SpanCommit
	// SpanSSTableRead is one cache-missing table read: a block fetched
	// from an sstable or a record resolved from a CL-SSTable's pinned
	// log, charged at device-model speed.
	SpanSSTableRead
	// SpanReplyFlush is the writer-side socket flush that carried this
	// op's reply.
	SpanReplyFlush
	NumSpanKinds
)

// String returns the snake_case kind name.
func (k SpanKind) String() string {
	switch k {
	case SpanDecode:
		return "decode"
	case SpanBarrier:
		return "barrier"
	case SpanCoalesce:
		return "coalesce"
	case SpanEpochWait:
		return "epoch_wait"
	case SpanWALAppend:
		return "wal_append"
	case SpanMemtableApply:
		return "memtable_apply"
	case SpanCommit:
		return "commit"
	case SpanSSTableRead:
		return "sstable_read"
	case SpanReplyFlush:
		return "reply_flush"
	default:
		return "other"
	}
}

// Span is one timed segment of a trace. Start is the offset from the
// trace's begin time, so spans render as a self-contained timeline.
type Span struct {
	Kind   SpanKind
	Start  time.Duration
	Dur    time.Duration
	Detail string
}

// Trace is one sampled request's span collection. Only sampled
// requests carry a non-nil *Trace, so the mutex here is never touched
// on the unsampled path; every method is nil-safe, making a trace
// pointer free to thread through layers that usually see nil.
type Trace struct {
	id   uint64
	time time.Time
	cmd  string
	key  string // escaped preview

	mu    sync.Mutex
	spans []Span
	dur   time.Duration
	done  bool

	// parent, if set, receives this trace's spans with tag before their
	// detail (see Tagged).
	parent *Trace
	tag    string
}

// Tagged returns a trace that records its spans into t with tag and a
// space before each span's detail, so that a layer can say where the work
// a lower layer records happened (the engine names the level of a table
// read). Nil for a nil t, so the untraced path allocates nothing.
func (t *Trace) Tagged(tag string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{id: t.id, time: t.time, parent: t, tag: tag}
}

// ID reports the trace's store-unique id (0 for a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Span records a segment that started at start and ends now. Nil-safe.
func (t *Trace) Span(kind SpanKind, start time.Time, detail string) {
	if t == nil {
		return
	}
	t.SpanAt(kind, start, time.Since(start), detail)
}

// SpanAt records a segment with an explicit duration. Nil-safe; spans
// may arrive from any goroutine and in any order.
func (t *Trace) SpanAt(kind SpanKind, start time.Time, dur time.Duration, detail string) {
	if t == nil {
		return
	}
	if t.parent != nil {
		t.parent.SpanAt(kind, start, dur, t.tag+" "+detail)
		return
	}
	off := start.Sub(t.time)
	if off < 0 {
		off = 0
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Kind: kind, Start: off, Dur: dur, Detail: detail})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans sorted by start offset
// (ties by kind order), so renderings are monotone timelines even
// though spans arrive from concurrent goroutines.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Dur reports the trace's end-to-end duration (0 until finished).
func (t *Trace) Dur() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur
}

// String renders a one-line summary: id, begin time, command, key
// preview, duration, span count.
func (t *Trace) String() string {
	if t == nil {
		return "<nil trace>"
	}
	t.mu.Lock()
	n := len(t.spans)
	d := t.dur
	t.mu.Unlock()
	// key was escaped to printable ASCII at Start, so it embeds raw;
	// %q would double every backslash the escaping introduced.
	return fmt.Sprintf("#%d %s %s \"%s\" dur=%s spans=%d",
		t.id, t.time.Format("15:04:05.000"), t.cmd, t.key, d.Round(time.Microsecond), n)
}

// Render returns the full multi-line breakdown: the summary line, then
// one line per span in timeline order.
func (t *Trace) Render() string {
	if t == nil {
		return "<nil trace>"
	}
	var b strings.Builder
	b.WriteString(t.String())
	for _, s := range t.Spans() {
		fmt.Fprintf(&b, "\n  +%-10s %-14s %s", s.Start.Round(time.Microsecond), s.Kind, s.Dur.Round(time.Microsecond))
		if s.Detail != "" {
			b.WriteString("  ")
			b.WriteString(EscapeText(s.Detail))
		}
	}
	return b.String()
}

// Traces is the set of sampled traces riding one write group through
// the engine; SpanAt fans out to each member. The engine sees a nil
// Traces for every untraced group, so the fan-out costs one len test.
type Traces []*Trace

// SpanAt records the segment into every trace in the set.
func (ts Traces) SpanAt(kind SpanKind, start time.Time, dur time.Duration, detail string) {
	for _, t := range ts {
		t.SpanAt(kind, start, dur, detail)
	}
}

// Tracer samples commands probabilistically and retains finished
// traces in a ring for TRACE RECENT / TRACE GET / /debug/trace. A nil
// *Tracer samples nothing: Start on a nil tracer is a single pointer
// test, and Start on a live tracer rejects an unsampled command with
// one lock-free random draw and no allocation.
type Tracer struct {
	// threshold is the sampling probability mapped onto the uint64
	// space: sample iff rand.Uint64() < threshold, with ^uint64(0)
	// meaning always (so sample=1.0 cannot lose to the < comparison).
	threshold uint64
	ids       atomic.Uint64

	mu   sync.Mutex
	ring ring[*Trace]
}

// NewTracer returns a tracer sampling the given fraction of commands
// and keeping the most recent keep finished traces. sample <= 0
// returns nil (tracing off, zero cost everywhere); sample >= 1 samples
// everything.
func NewTracer(sample float64, keep int) *Tracer {
	if sample <= 0 {
		return nil
	}
	if keep <= 0 {
		keep = 256
	}
	th := ^uint64(0)
	if sample < 1 {
		th = uint64(sample * float64(1<<63) * 2)
	}
	return &Tracer{threshold: th, ring: newRing[*Trace](keep)}
}

// Start begins a trace for the command if it is sampled, returning nil
// otherwise. begin is the moment the request started being read off
// the wire; span offsets are relative to it. key is escaped into a
// bounded preview only when sampled.
func (t *Tracer) Start(cmd string, key []byte, begin time.Time) *Trace {
	if t == nil {
		return nil
	}
	if t.threshold != ^uint64(0) && rand.Uint64() >= t.threshold {
		return nil
	}
	if len(key) > maxSlowKeyBytes {
		key = key[:maxSlowKeyBytes]
	}
	return &Trace{id: t.ids.Add(1), time: begin, cmd: cmd, key: EscapeText(string(key))}
}

// Finish stamps the trace's end-to-end duration and publishes it to
// the retained ring. Nil-safe in both arguments; finishing twice is a
// no-op.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.dur = time.Since(tr.time)
	tr.mu.Unlock()
	t.mu.Lock()
	t.ring.push(tr)
	t.mu.Unlock()
}

// Sampled reports how many commands were ever sampled.
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Load()
}

// Finished reports how many traces were ever published.
func (t *Tracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.n
}

// Recent returns up to max retained finished traces, newest first
// (max <= 0: all retained).
func (t *Tracer) Recent(max int) []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.newest(max, 0)
}

// Get returns the retained trace with the given id, or nil if it has
// been overwritten (or never finished).
func (t *Tracer) Get(id uint64) *Trace {
	if t == nil || id == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.ring.slots {
		if tr != nil && tr.id == id {
			return tr
		}
	}
	return nil
}

// EscapeText returns s with every byte outside printable ASCII
// rendered as a \xNN escape, so binary keys and free-form detail
// strings cannot smuggle control bytes into terminal or HTTP output.
// Clean strings are returned unchanged without allocating.
func EscapeText(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e {
			fmt.Fprintf(&b, "\\x%02x", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}
