// Package obs is a stub of repro/internal/obs and simultaneously the
// in-package golden target for the nilsafeobs analyzer: path-suffix
// matching makes the analyzer treat it as internal/obs, so exported
// pointer-receiver methods on the nil-safe types below must guard
// `recv == nil` before touching fields. Seeded violations carry want
// annotations; everything else must stay silent.
package obs

// Hist mirrors the latency histogram. Count is exported so the
// caller-side golden test can attempt a direct field access.
type Hist struct {
	Count int64
	sum   int64
}

// Observe guards before touching fields: the canonical shape.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	h.Count++
	h.sum += v
}

// Sum forgot the guard.
func (h *Hist) Sum() int64 {
	return h.sum // want `Hist\.Sum accesses field sum before guarding the nil receiver`
}

// Mean reads a field in an expression before the guard statement.
func (h *Hist) Mean() int64 {
	n := h.Count // want `Hist\.Mean accesses field Count before guarding the nil receiver`
	if h == nil {
		return 0
	}
	return h.sum / n
}

// reset is unexported: the contract covers the exported API only.
func (h *Hist) reset() {
	h.sum = 0
	h.Count = 0
}

type Trace struct {
	off bool
	n   int
}

// Step guards through a short-circuit chain: `t == nil` is evaluated
// first, so the trailing field read is safe.
func (t *Trace) Step() {
	if t == nil || t.off {
		return
	}
	t.n++
}

type Tracer struct{ sampled uint64 }

// Start touches no fields before delegating; method calls on a nil
// receiver are fine as long as the callee guards.
func (tr *Tracer) Start() *Trace {
	return tr.begin()
}

func (tr *Tracer) begin() *Trace {
	if tr == nil {
		return nil
	}
	tr.sampled++
	return &Trace{}
}

type Journal struct {
	events  []string
	dropped int64
}

// Append panics instead of returning: any terminating guard body
// counts.
func (j *Journal) Append(ev string) {
	if j == nil {
		panic("nil journal")
	}
	j.events = append(j.events, ev)
}

// AddDropped may run statements that do not touch the receiver before
// the guard.
func (j *Journal) AddDropped(n int64) {
	total := n
	if j == nil {
		return
	}
	j.dropped += total
}

type SlowLog struct{ thresh int64 }

// Observe checks the wrong condition first: the nil test must lead
// the short-circuit spine.
func (l *SlowLog) Observe(d int64) {
	if d < l.thresh || l == nil { // want `SlowLog\.Observe accesses field thresh before guarding the nil receiver`
		return
	}
}

// Prom is the Prometheus exposition sink; it is not a nil-safe type,
// but its method set is what the metricname analyzer keys on.
type Prom struct{}

func (p *Prom) Counter(name, help, labels string, v uint64)   {}
func (p *Prom) CounterF(name, help, labels string, v float64) {}
func (p *Prom) Gauge(name, help, labels string, v int64)      {}
func (p *Prom) GaugeF(name, help, labels string, v float64)   {}
func (p *Prom) Histogram(name, help, labels string, h *Hist)  {}
