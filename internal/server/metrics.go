package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// MetricsHandler returns the server's HTTP side surface. Serve it on a
// listener of its own, never the RESP port:
//
//		http.ListenAndServe(addr, s.MetricsHandler(false))
//
//	  - GET /metrics (or /) — Prometheus text exposition (format 0.0.4):
//	    engine counters, derived amplifications, per-shard gauges, and the
//	    latency histograms (per command family, per commit-pipeline stage,
//	    per-batch apply).
//	  - GET /stats — the human-readable Stats() text.
//	  - GET /debug/events — the background-event journal, newest first
//	    (?n=100 limits).
//	  - GET /debug/slowlog — the slow-command ring, newest first.
//	  - GET /debug/pprof/* — net/http/pprof, only when enablePprof; the
//	    profiling surface can run arbitrary CPU/heap captures, so it stays
//	    off unless the operator asked for it (triadserver -pprof).
func (s *Server) MetricsHandler(enablePprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.statsText())
	})
	dump := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		fmt.Fprint(w, s.MetricsText())
	}
	mux.HandleFunc("/metrics", dump)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		// "/" is a catch-all pattern; without this check every unknown
		// path — including /debug/pprof/* when profiling is off — would
		// serve the metrics dump instead of a 404.
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		dump(w, r)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		maxN := 0
		if q := r.URL.Query().Get("n"); q != "" {
			if n, err := strconv.Atoi(q); err == nil && n > 0 {
				maxN = n
			}
		}
		j := s.store.Events()
		fmt.Fprintf(w, "# %d events total (ring keeps the most recent)\n", j.Total())
		for _, e := range j.Events(maxN) {
			fmt.Fprintln(w, e)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tracer := s.ob.tracer
		maxN := 0
		if q := r.URL.Query().Get("n"); q != "" {
			if n, err := strconv.Atoi(q); err == nil && n > 0 {
				maxN = n
			}
		}
		fmt.Fprintf(w, "# %d traces sampled, %d finished (ring keeps the most recent; rate set by -trace-sample)\n",
			tracer.Sampled(), tracer.Finished())
		for _, tr := range tracer.Recent(maxN) {
			fmt.Fprintln(w, tr.Render())
		}
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		log := s.ob.slow
		fmt.Fprintf(w, "# threshold %s, %d slow commands total\n", log.Threshold(), log.Total())
		for _, e := range log.Entries(0) {
			fmt.Fprintln(w, e)
		}
	})
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// MetricsText renders the metrics dump (the /metrics body) in the
// Prometheus text exposition format: every series carries # HELP and
// # TYPE, histograms expose _bucket/_sum/_count, and per-shard series
// are labeled {shard="N"}. The store renders its own series
// (shard.DB.WriteMetrics); the server adds only its connections, cursors,
// group commit, latency histograms, slowlog and traces.
func (s *Server) MetricsText() string {
	var b strings.Builder
	p := obs.NewProm(&b)
	s.store.WriteMetrics(p)

	open, total, commands := s.ConnStats()
	p.Gauge("triad_server_connections_open", "Currently open client connections.", "", int64(open))
	p.Counter("triad_server_connections_total", "Client connections ever accepted.", "", total)
	p.Counter("triad_server_commands_total", "Commands parsed and dispatched.", "", commands)
	curOpen, curTotal := s.CursorStats()
	p.Gauge("triad_server_cursors_open", "Open server-side SCAN cursors (each pins a snapshot).", "", int64(curOpen))
	p.Counter("triad_server_cursors_total", "SCAN cursors ever opened.", "", curTotal)
	batches, ops := s.GroupCommitStats()
	p.Counter("triad_server_group_commit_batches_total", "Write groups committed by the group committer.", "", batches)
	p.Counter("triad_server_group_commit_ops_total", "Write operations carried by committed groups.", "", ops)
	if batches > 0 {
		p.GaugeF("triad_server_group_commit_mean_size", "Realized mean group size (ops per batch).", "", float64(ops)/float64(batches))
	}

	for f := obs.FamGet; f < obs.NumFamilies; f++ {
		p.Histogram("triad_cmd_latency_seconds",
			"Server-side command latency (dispatch to reply resolution) by command family.",
			fmt.Sprintf("cmd=%q", f.String()), s.ob.cmd[f])
	}
	for st := obs.StageCoalesce; st < obs.NumStages; st++ {
		p.Histogram("triad_commit_stage_latency_seconds",
			"Commit-pipeline stage latency: coalesce (batching window), epoch_wait (Prepare), commit (WAL+memtable), reply_flush (socket flush).",
			fmt.Sprintf("stage=%q", st.String()), s.ob.stage[st])
	}
	p.Counter("triad_server_slow_commands_total", "Commands that exceeded the slowlog threshold.", "", int64(s.ob.slow.Total()))
	p.Counter("triad_traces_sampled_total", "Commands sampled for end-to-end tracing.", "", int64(s.ob.tracer.Sampled()))
	p.Counter("triad_traces_finished_total", "Sampled traces finished and retained in the TRACE ring.", "", int64(s.ob.tracer.Finished()))
	return b.String()
}

// statsText is the STATS / /stats body: the engine dump (snapshot
// hygiene included), the latency quantile tables, and the server's
// cursor counts.
func (s *Server) statsText() string {
	curOpen, curTotal := s.CursorStats()
	return s.store.Stats() + s.ob.quantileTable() +
		fmt.Sprintf("server: %d cursors open (%d lifetime)\n", curOpen, curTotal)
}
