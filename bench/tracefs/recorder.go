package tracefs

import (
	"bufio"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Filesystem operations that get a span. Span names for them are
// "<op>.<kind>", e.g. "write.log" or "read.sst".
const (
	opWrite = iota
	opRead
	opSync
	opCreate
	opOpen
	opRemove
	opRename
	numOps
)

// NumFSNames is how many span names the filesystem wrapper owns; they
// come first in Recorder.Names().
const NumFSNames = numOps * int(NumKinds)

// IsDataRead reports whether the span name is a read of table, table
// index or commit-log data — the reads a lookup can cause.
func IsDataRead(name uint16) bool {
	if int(name)/int(NumKinds) != opRead {
		return false
	}
	k := Kind(int(name) % int(NumKinds))
	return k == KindSST || k == KindCLIdx || k == KindLog
}

var opNames = [numOps]string{"write", "read", "sync", "create", "open", "remove", "rename"}

// Span is one timed interval. Parent is the span that was running on the
// same goroutine when this one began, or 0: a filesystem span with no
// parent was issued by a background goroutine (flush, compaction), one
// with a parent by a foreground operation.
type Span struct {
	ID, Parent uint32
	Name       uint16 // index into Recorder.Names()
	// Contig marks a read that continues the previous read of the same
	// file within the same parent span (offset == previous end): one
	// device access issued as two calls, e.g. a log record's header and
	// body.
	Contig bool
	Bytes  int32
	Start  int64 // ns since the recorder was created
	Dur    int64 // ns
}

// Recorder keeps spans in memory. It starts switched off; while off
// every method returns after one atomic load, so the untraced rounds
// pay nothing for sharing their code with the traced ones.
type Recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint32

	mu    sync.Mutex
	spans []Span
	names []string

	// cur maps an OS thread inside an Enter/Exit pair to its state, so a
	// filesystem call can find the operation it is running under: the vfs
	// interface carries no context. Enter pins its goroutine to its
	// thread until Exit, so for that interval the thread id identifies
	// the goroutine, and nothing else can run on the thread.
	curMu sync.RWMutex
	cur   map[int]*gstate
}

// gstate is touched only by the goroutine pinned to its thread.
type gstate struct {
	span     uint32 // innermost open span
	lastFile *file  // last file read under that span, and where the read ended
	lastEnd  int64
}

// NewRecorder returns a switched-off recorder with room for capacity
// spans (it grows past that if needed).
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{
		epoch: time.Now(),
		spans: make([]Span, 0, capacity),
		cur:   make(map[int]*gstate),
	}
	for op := 0; op < numOps; op++ {
		for k := Kind(0); k < NumKinds; k++ {
			r.names = append(r.names, opNames[op]+"."+k.String())
		}
	}
	return r
}

// Name registers a span name for Enter and returns its index. Register
// names before any goroutine records spans.
func (r *Recorder) Name(s string) uint16 {
	r.names = append(r.names, s)
	return uint16(len(r.names) - 1)
}

// Names returns the span-name table.
func (r *Recorder) Names() []string { return r.names }

// SetOn switches span recording on or off.
func (r *Recorder) SetOn(v bool) { r.on.Store(v) }

// On reports whether spans are being recorded. Nil-safe.
func (r *Recorder) On() bool { return r != nil && r.on.Load() }

// Token carries an open span from Enter to Exit. The zero Token is "not
// recording".
type Token struct {
	id, parent uint32
	name       uint16
	contig     bool
	bytes      int32
	start      int64
	g          *gstate // set for Enter spans only
	tid        int
}

func (r *Recorder) lookup(tid int) *gstate {
	r.curMu.RLock()
	g := r.cur[tid]
	r.curMu.RUnlock()
	return g
}

// Enter opens a span that filesystem spans on the same goroutine will
// name as their parent. Every Enter needs its Exit, on the same
// goroutine; between the two the goroutine is locked to its thread.
func (r *Recorder) Enter(name uint16) Token {
	if !r.On() {
		return Token{}
	}
	runtime.LockOSThread()
	tid := syscall.Gettid()
	g := r.lookup(tid)
	if g == nil {
		g = &gstate{}
		r.curMu.Lock()
		r.cur[tid] = g
		r.curMu.Unlock()
	}
	t := Token{id: r.next.Add(1), parent: g.span, name: name, g: g, tid: tid}
	g.span, g.lastFile = t.id, nil
	t.start = int64(time.Since(r.epoch))
	return t
}

// enterFS opens the span of one filesystem call: a leaf under whatever
// Enter span is open on this thread. f and off are the file and offset
// of a read (nil otherwise), so that a read continuing the previous one
// can be marked.
func (r *Recorder) enterFS(op int, k Kind, n int, f *file, off int64) Token {
	if !r.On() {
		return Token{}
	}
	t := Token{id: r.next.Add(1), name: uint16(op*int(NumKinds) + int(k)), bytes: int32(n)}
	if g := r.lookup(syscall.Gettid()); g != nil {
		t.parent = g.span
		if f != nil {
			t.contig = g.lastFile == f && g.lastEnd == off
			g.lastFile, g.lastEnd = f, off+int64(n)
		}
	}
	t.start = int64(time.Since(r.epoch))
	return t
}

// Add records a span the caller timed itself, with no parent — for
// intervals that do not nest on one goroutine, such as pipelined client
// requests.
func (r *Recorder) Add(name uint16, start time.Time, dur time.Duration) {
	if !r.On() {
		return
	}
	s := Span{ID: r.next.Add(1), Name: name, Start: int64(start.Sub(r.epoch)), Dur: int64(dur)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Exit closes the span. A zero Token is ignored (and the recorder may
// then be nil).
func (r *Recorder) Exit(t Token) {
	if t.id == 0 {
		return
	}
	end := int64(time.Since(r.epoch))
	if t.g != nil {
		t.g.span, t.g.lastFile = t.parent, nil
		if t.parent == 0 {
			r.curMu.Lock()
			delete(r.cur, t.tid)
			r.curMu.Unlock()
		}
		runtime.UnlockOSThread()
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{
		ID: t.id, Parent: t.parent, Name: t.name, Contig: t.contig,
		Bytes: t.bytes, Start: t.start, Dur: end - t.start,
	})
	r.mu.Unlock()
}

// Spans returns the recorded spans in completion order. Call it once
// recording has stopped.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// NameStats aggregates the spans of one name.
type NameStats struct {
	Count int64
	Dur   int64 // ns, summed
	// Self is Dur minus the time covered by child spans.
	Self int64
	// Foreground counts the spans that ran under a parent span.
	Foreground    int64
	ForegroundDur int64
}

// Aggregate sums spans by name and computes self time: a span's
// duration minus the durations of the spans that name it as parent
// (children of one parent run on one goroutine, so they never overlap).
func Aggregate(spans []Span, names int) []NameStats {
	child := make(map[uint32]int64, len(spans)/2)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make([]NameStats, names)
	for _, s := range spans {
		ns := &out[s.Name]
		ns.Count++
		ns.Dur += s.Dur
		ns.Self += s.Dur - child[s.ID]
		if s.Parent != 0 {
			ns.Foreground++
			ns.ForegroundDur += s.Dur
		}
	}
	return out
}

// WriteJSON writes the spans as
// {"names":[...],"spans":[[id,parent,name,start_ns,dur_ns,bytes,contig],...]}.
func (r *Recorder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.WriteString(`{"names":[`)
	for i, n := range r.names {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.Quote(n))
	}
	bw.WriteString("],\n\"spans\":[\n")
	var buf []byte
	for i, s := range r.Spans() {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		buf = strconv.AppendUint(buf, uint64(s.ID), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(s.Parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(s.Name), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Dur, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Bytes), 10)
		if s.Contig {
			buf = append(buf, ",1]"...)
		} else {
			buf = append(buf, ",0]"...)
		}
		bw.Write(buf)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
