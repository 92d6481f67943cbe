// Package obs is a stub of repro/internal/obs and simultaneously the
// in-package golden target for the nilsafeobs analyzer: path-suffix
// matching makes the analyzer treat it as internal/obs, so exported
// pointer-receiver methods on the nil-safe types below must guard
// `recv == nil` before touching fields. Seeded violations carry want
// annotations; everything else must stay silent.
package obs

// Hist mirrors the latency histogram, which is not nil-safe: every one
// comes from its constructor, so its methods need no guard and callers
// may touch its fields.
type Hist struct {
	Count int64
	sum   int64
}

func (h *Hist) Sum() int64 {
	return h.sum
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

// Len forgot the guard.
func (t *Trace) Len() int {
	return t.n // want `Trace\.Len accesses field n before guarding the nil receiver`
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

// Sampled checks the wrong condition first: the nil test must lead
// the short-circuit spine.
func (tr *Tracer) Sampled(every uint64) bool {
	if tr.sampled%every != 0 || tr == nil { // want `Tracer\.Sampled accesses field sampled before guarding the nil receiver`
		return false
	}
	return true
}

// Journal's Total is exported so the caller-side golden test can
// attempt a direct field access.
type Journal struct {
	Total   int64
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
	j.Total++
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

// DropRate reads a field in an expression before the guard statement.
func (j *Journal) DropRate() int64 {
	n := j.Total // want `Journal\.DropRate accesses field Total before guarding the nil receiver`
	if j == nil {
		return 0
	}
	return j.dropped / n
}

// reset is unexported: the contract covers the exported API only.
func (j *Journal) reset() {
	j.events = nil
	j.Total = 0
}

// Prom is the Prometheus exposition sink; it is not a nil-safe type,
// but its method set is what the metricname analyzer keys on.
type Prom struct{}

func (p *Prom) Counter(name, help, labels string, v uint64)   {}
func (p *Prom) CounterF(name, help, labels string, v float64) {}
func (p *Prom) Gauge(name, help, labels string, v int64)      {}
func (p *Prom) GaugeF(name, help, labels string, v float64)   {}
func (p *Prom) Histogram(name, help, labels string, h *Hist)  {}
