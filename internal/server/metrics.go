package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/bgsched"
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
// are labeled {shard="N"}.
func (s *Server) MetricsText() string {
	var b strings.Builder
	p := obs.NewProm(&b)
	m := s.store.Metrics()

	p.Counter("triad_user_writes_total", "User Put/Delete operations accepted by the store.", "", m.UserWrites)
	p.Counter("triad_user_reads_total", "User Get operations served by the store.", "", m.UserReads)
	p.Counter("triad_user_bytes_total", "Key+value bytes written by users.", "", m.UserBytes)
	p.Counter("triad_bytes_logged_total", "Bytes appended to commit logs.", "", m.BytesLogged)
	p.Counter("triad_bytes_relogged_total", "Of the bytes logged, those no user commit wrote: entries carried by log rotations and flushes, and hot keys written back.", "", m.BytesRelogged)
	p.Counter("triad_bytes_flushed_total", "Bytes written to L0 by flushes.", "", m.BytesFlushed)
	p.Counter("triad_bytes_folded_total", "CL-SSTable index bytes written by L0 folds.", "", m.BytesFolded)
	p.Counter("triad_bytes_compacted_total", "Bytes written by compactions.", "", m.BytesCompacted)
	p.Counter("triad_flushes_total", "Memtable flushes completed.", "", m.Flushes)
	p.Counter("triad_flush_skips_total", "TRIAD-MEM small-memtable flush skips (commit-log rotations without a flush).", "", m.FlushSkips)
	p.Counter("triad_compactions_total", "Compactions completed.", "", m.Compactions)
	p.Counter("triad_compactions_deferred_total", "TRIAD-DISK compaction deferrals (insufficient key overlap).", "", m.CompactionsDeferred)
	p.Counter("triad_compaction_moves_total", "Files relinked one level down by a manifest edit because nothing there overlapped them.", "", m.TrivialMoves)
	p.Counter("triad_folds_total", "L0 folds: L0's CL-SSTables merged by index into one, instead of into L1.", "", m.Folds)
	l0Jobs := "L0 jobs where L0 can fold, by the rule that chose them: folded, or merged because the folds paid the merge's rent, L0 reached its log ceiling, or a drain."
	p.Counter("triad_l0_jobs_total", l0Jobs, `rule="fold"`, m.Folds)
	p.Counter("triad_l0_jobs_total", l0Jobs, `rule="rent_paid"`, m.MergesRentPaid)
	p.Counter("triad_l0_jobs_total", l0Jobs, `rule="log_ceiling"`, m.MergesLogCeiling)
	p.Counter("triad_l0_jobs_total", l0Jobs, `rule="drain"`, m.MergesDrain)
	p.GaugeF("triad_write_amplification", "Store-wide write amplification: (logged+flushed+folded+compacted)/user bytes.", "", m.WriteAmplification())
	p.GaugeF("triad_read_amplification", "Store-wide read amplification: disk reads per user read.", "", m.ReadAmplification())
	p.Counter("triad_write_stalls_total", "Write-stall episodes: writers blocked on memtable or L0 backpressure.", "", m.WriteStalls)
	p.CounterF("triad_write_stall_seconds_total", "Total wall time writers spent blocked in stalls.", "", m.WriteStallTime.Seconds())
	p.Gauge("triad_compaction_backlog_bytes", "Store-wide pending-compaction byte estimate (L0 at trigger plus per-level excess over target).", "", s.store.CompactionDebt())

	bs := s.store.Scheduler().Stats()
	p.Gauge("triad_bg_workers", "Background pool worker count.", "", int64(bs.Workers))
	p.Gauge("triad_bg_workers_busy", "Background pool workers currently running a task.", "", int64(bs.Busy))
	for c := 0; c < bgsched.NumClasses; c++ {
		p.Gauge("triad_bg_queue_depth", "Tasks queued in the background pool by priority class.",
			fmt.Sprintf("class=%q", bgsched.Class(c)), int64(bs.Queued[c]))
	}
	p.Counter("triad_bg_tasks_completed_total", "Background pool tasks run to completion.", "", bs.Completed)

	cs := s.store.BlockCacheStats()
	p.Counter("triad_block_cache_hits_total", "Block-cache lookups served from memory.", "", cs.Hits)
	p.Counter("triad_block_cache_misses_total", "Block-cache lookups that went to disk.", "", cs.Misses)
	p.Gauge("triad_block_cache_resident_bytes", "Bytes currently resident in the block cache.", "", cs.Resident)
	p.Gauge("triad_block_cache_capacity_bytes", "Configured block-cache capacity.", "", cs.Capacity)
	p.Counter("triad_block_cache_evictions_total", "Blocks evicted to make room.", "", cs.Evictions)
	p.Counter("triad_block_cache_admission_rejects_total", "Blocks the scan-resistant admission policy refused to cache.", "", cs.AdmissionRejects)
	p.GaugeF("triad_block_cache_hit_rate", "Lifetime block-cache hit rate (hits / lookups).", "", cs.HitRate())

	for _, st := range s.store.ShardStats() {
		l := fmt.Sprintf("shard=%q", strconv.Itoa(st.Shard))
		p.Counter("triad_shard_writes_total", "User write operations routed to the shard.", l, st.Writes)
		p.Counter("triad_shard_reads_total", "User read operations routed to the shard.", l, st.Reads)
		p.Gauge("triad_shard_disk_bytes", "On-disk bytes held by the shard: its tables and the commit logs its L0 CL-SSTables pin.", l, st.DiskBytes)
		p.Gauge("triad_shard_files", "On-disk table files held by the shard.", l, int64(st.Files))
		p.Gauge("triad_l0_depth", "The shard's L0 read depth: the most L0 tables whose key range holds any one key. Where L0 can fold, its compaction trigger and write stop count this instead of files.", l, int64(st.Levels[0].Depth))
		p.Gauge("triad_l0_log_bytes", "Commit-log bytes the shard's L0 CL-SSTables pin.", l, st.Levels[0].LogBytes)
		p.Gauge("triad_l0_log_ceiling_bytes", "Where L0 can fold, the commit-log bytes the shard's L0 may pin before it merges whatever its rent: six full logs, or three times the bytes its merge would rewrite if more. Zero where L0 cannot fold.", l, st.Levels[0].LogCeiling)
		p.GaugeF("triad_shard_write_amplification", "The shard's own write amplification.", l, st.WA)
		p.GaugeF("triad_shard_read_amplification", "The shard's own read amplification.", l, st.RA)
		p.Gauge("triad_shard_compaction_backlog_bytes", "The shard's pending-compaction byte estimate.", l, st.CompactionDebt)
		p.Counter("triad_compaction_spilled_bytes_total", "Of the bytes written by compactions on the shard, those L0 merges' spills wrote one level below the merge's output level because the output level had no room for them.", l, st.BytesSpilled)
		p.Counter("triad_shard_write_stalls_total", "Write-stall episodes on the shard.", l, st.WriteStalls)
		p.CounterF("triad_shard_write_stall_seconds_total", "Wall time the shard's writers spent blocked in stalls.", l, st.WriteStallTime.Seconds())
		p.Gauge("triad_shard_unsynced_log_bytes", "Commit-log bytes the shard acknowledged that a power cut could still take: the live log's and each queued memtable's log's size less its length at its last sync.", l, st.UnsyncedLogBytes)
		bgErr := int64(0)
		if st.BackgroundError != nil {
			bgErr = 1
		}
		p.Gauge("triad_shard_background_error", "1 once a flush or compaction on the shard has failed: its background work has stopped and every write to it fails until the store is reopened; 0 otherwise.", l, bgErr)
		p.Gauge("triad_shard_overlay_entries", "Replaced versions the shard's memtables keep for open snapshots; one for a closed snapshot goes with the next overwrite of its key, or with its memtable.", l, int64(st.OverlayEntries))
		p.Counter("triad_shard_cache_hits_total", "Block-cache lookups by this shard served from memory.", l, st.CacheHits)
		p.Counter("triad_shard_cache_misses_total", "Block-cache lookups by this shard that went to disk.", l, st.CacheMisses)
		p.Gauge("triad_shard_cache_resident_bytes", "Shared-cache bytes currently held by this shard's blocks.", l, st.CacheBytes)
		for lvl, ls := range st.Levels {
			ll := fmt.Sprintf("%s,level=%q", l, strconv.Itoa(lvl))
			p.Gauge("triad_level_files", "Table files on the level.", ll, int64(ls.Files))
			p.Gauge("triad_level_bytes", "Bytes on the level: its tables and, for L0, the commit logs its CL-SSTables pin.", ll, ls.Bytes)
			p.Gauge("triad_level_target_bytes", "Byte target the picker currently allows the level, sized from the shard's deepest level (0 for L0, which is triggered by file count, or where it can fold by read depth).", ll, ls.Target)
			p.GaugeF("triad_level_score", "Compaction pressure: level bytes over target (L0: files, or where it can fold read depth, over trigger); above 1 the level is owed a compaction.", ll, ls.Score)
			p.Counter("triad_level_l0_merges_total", "L0 merges that wrote the level as their output level: L1, or a deeper level where the merge's batch outweighed the bytes under it down to that level.", ll, ls.L0Merges)
			p.Counter("triad_level_compacted_bytes_total", "Bytes written by compactions that took their input from the level; sums over levels to triad_bytes_compacted_total.", ll, ls.CompactedBytes)
			p.Counter("triad_get_probes_total", "Tables on the level that lookups consulted: in L0 every table whose range holds the key down to the one holding it, one table per deeper level.", ll, ls.Probes)
			p.Counter("triad_get_filter_negatives_total", "Of the level's probes, those its Bloom filters turned away without a read.", ll, ls.FilterNegatives)
			p.Counter("triad_get_filter_false_positives_total", "Of the level's probes, those its Bloom filters passed for a key the table does not hold; the rest of the probes past the filter found the key.", ll, ls.FilterFalsePositives)
			getReads := "Disk reads lookups charged on the level, by source: block (a block the cache did not hold) or log (a CL-SSTable value's commit-log record); sums over levels and sources to the reads behind triad_read_amplification."
			p.Counter("triad_get_reads_total", getReads, ll+`,source="block"`, ls.BlockReads)
			p.Counter("triad_get_reads_total", getReads, ll+`,source="log"`, ls.LogReads)
		}
		for src := obs.Source(0); src < obs.NumSources; src++ {
			p.Counter("triad_io_bytes_total",
				"Disk bytes attributed by shard and source. user_write is WA's denominator; wal+flush+fold+compaction_write its numerator; compaction_read is merge input, snapshot_gc zombie bytes reclaimed.",
				fmt.Sprintf("shard=%q,source=%q", strconv.Itoa(st.Shard), src.String()), st.IO[src])
		}
	}

	p.Gauge("triad_commit_epoch", "Store-wide commit watermark (every epoch at or below has committed).", "", int64(s.store.CommittedEpoch()))
	p.Gauge("triad_snapshots_open", "Live store snapshots, scans' own included: a snapshot counts until its handle and every iterator opened from it are closed or reclaimed.", "", int64(s.store.OpenSnapshots()))
	p.Counter("triad_snapshots_leaked_total", "Store snapshots the finalizer reclaimed because their handle or an iterator opened from them was dropped without Close.", "", s.store.LeakedSnapshots())
	p.Gauge("triad_overlay_entries", "Replaced versions all memtables keep for open snapshots; one for a closed snapshot goes with the next overwrite of its key, or with its memtable.", "", int64(s.store.OverlayEntries()))

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
	p.Histogram("triad_apply_latency_seconds",
		"Store-level batch commit execution latency (ticket wait + WAL append + memtable insert).",
		"", s.store.ApplyLatency())

	ev := s.store.Events()
	p.Counter("triad_events_total", "Background events (flush/compaction/snapshot-gc/stall) ever journaled.", "", int64(ev.Total()))
	p.Counter("triad_journal_dropped_total", "Background events overwritten in the ring before any reader saw them.", "", int64(ev.Dropped()))
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
