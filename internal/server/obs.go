package server

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// serverObs bundles the server's latency instrumentation: one recorder
// per command family, one per commit-pipeline stage, the slowlog, and
// the request tracer.
type serverObs struct {
	cmd    [obs.NumFamilies]*obs.Hist
	stage  [obs.NumStages]*obs.Hist
	slow   *obs.SlowLog
	tracer *obs.Tracer // nil when Config.TraceSample is 0
}

func newServerObs(cfg Config) *serverObs {
	o := &serverObs{
		slow:   obs.NewSlowLog(slowlogSize, cfg.SlowlogThreshold),
		tracer: obs.NewTracer(cfg.TraceSample, traceKeep),
	}
	for f := range o.cmd {
		o.cmd[f] = obs.NewHist()
	}
	for s := range o.stage {
		o.stage[s] = obs.NewHist()
	}
	return o
}

// observe records one finished command: its family latency and, when it
// crossed the threshold, a slowlog entry carrying the command's trace
// id when it happened to be sampled (the slowest commands thereby link
// to their full span breakdown).
func (o *serverObs) observe(fam obs.Family, key []byte, start time.Time, tr *obs.Trace) {
	d := time.Since(start)
	o.cmd[fam].Record(d)
	o.slow.Observe(fam.String(), key, d, tr.ID())
}

// quantileTable renders the per-family latency quantiles as an aligned
// text table (the STATS / triaddb stats surface). Empty when nothing was
// recorded.
func (o *serverObs) quantileTable() string {
	var b strings.Builder
	wrote := false
	for f := obs.FamGet; f < obs.NumFamilies; f++ {
		h := o.cmd[f].Snapshot()
		if h.Count() == 0 {
			continue
		}
		if !wrote {
			fmt.Fprintf(&b, "command latency (server-side, reply-resolution time):\n")
			fmt.Fprintf(&b, "  %-6s %10s %10s %10s %10s %10s\n", "cmd", "count", "p50", "p90", "p99", "p99.9")
			wrote = true
		}
		fmt.Fprintf(&b, "  %-6s %10d %10s %10s %10s %10s\n",
			f, h.Count(),
			rq(h.Quantile(0.50)), rq(h.Quantile(0.90)), rq(h.Quantile(0.99)), rq(h.Quantile(0.999)))
	}
	wroteStage := false
	for s := obs.StageCoalesce; s < obs.NumStages; s++ {
		h := o.stage[s].Snapshot()
		if h.Count() == 0 {
			continue
		}
		if !wroteStage {
			fmt.Fprintf(&b, "commit pipeline stages:\n")
			fmt.Fprintf(&b, "  %-12s %10s %10s %10s %10s %10s\n", "stage", "count", "p50", "p90", "p99", "p99.9")
			wroteStage = true
		}
		fmt.Fprintf(&b, "  %-12s %10d %10s %10s %10s %10s\n",
			s, h.Count(),
			rq(h.Quantile(0.50)), rq(h.Quantile(0.90)), rq(h.Quantile(0.99)), rq(h.Quantile(0.999)))
	}
	return b.String()
}

// rq rounds a quantile for table display.
func rq(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
