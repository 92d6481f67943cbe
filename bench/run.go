package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/bench/probe"
	"repro/bench/tracefs"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	keys     int
	// scale multiplies every round size; the smoke test runs at 1/200.
	scale float64
	// outDir receives <workload>.trace.json in a traced run.
	outDir string
}

// report is what a run produces.
type report struct {
	attempted, failed int64
	vals              map[string]float64
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

// env is a set-up store and, for net workloads, the server in front of
// it and the client connections.
type env struct {
	st    *store
	o     *oracle
	srv   *server.Server
	serve chan error
	conns []*client.Conn
}

func buildEnv(cfg config, sp spec, rec *tracefs.Recorder, names spanNames) (*env, error) {
	st, o, err := setUp(cfg.keys, cfg.seed, rec)
	if err != nil {
		return nil, err
	}
	e := &env{st: st, o: o}
	if !sp.net {
		return e, nil
	}
	e.srv = server.New(&tracedStore{DB: st.db, rec: rec, name: names}, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.serve = make(chan error, 1)
	go func() { e.serve <- e.srv.Serve(ln) }()
	for w := 0; w < workers; w++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// close tears the environment down: connections, server, then store.
func (e *env) close() error {
	var errs []error
	for _, c := range e.conns {
		errs = append(errs, c.Close())
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx))
		cancel()
		if e.serve != nil {
			errs = append(errs, <-e.serve)
		}
	}
	errs = append(errs, e.st.db.Close())
	return errors.Join(errs...)
}

// verifyScan is the correctness pass: one full scan must return exactly
// the oracle's keys, in order, with the oracle's current values. It
// returns the number of keys expected and the number of mismatches.
func verifyScan(e *env) (attempted, failed int64, err error) {
	it, err := e.st.db.NewIterator(nil, nil)
	if err != nil {
		return 0, 0, err
	}
	defer it.Close()
	keys := len(e.o.ver)
	want := make([]byte, keyLen)
	n := 0
	for it.Next() {
		if n < keys {
			putKey(want, uint32(n))
			if !bytes.Equal(it.Key(), want) || !e.o.matches(it.Value(), uint32(n), e.o.ver[n]) {
				failed++
			}
		} else {
			failed++ // a key nobody wrote
		}
		n++
	}
	if err := it.Err(); err != nil {
		return 0, 0, err
	}
	if n < keys {
		failed += int64(keys - n)
	}
	return int64(keys), failed, nil
}

// timedSetUp builds the environment several times over, with a lap of the
// pacer before each build and after the last. It returns the last build,
// which is the one measured on, the median build time and the median lap.
func timedSetUp(cfg config, sp spec, rec *tracefs.Recorder, names spanNames) (e *env, setup, lap time.Duration, err error) {
	var builds, laps []float64
	pc := newPacer()
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, 0, err
			}
		}
		laps = append(laps, float64(pc.lap()))
		t0 := time.Now()
		if e, err = buildEnv(cfg, sp, rec, names); err != nil {
			return nil, 0, 0, err
		}
		builds = append(builds, float64(time.Since(t0)))
	}
	laps = append(laps, float64(pc.lap()))
	return e, time.Duration(median(builds)), time.Duration(median(laps)), nil
}

// run executes one workload and returns its metrics.
func run(cfg config) (*report, error) {
	sp, ok := findSpec(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep := &report{vals: make(map[string]float64)}

	// The plan: which rounds are traced, and how large each kind is.
	plan := make([]bool, rounds)
	size := func(perSecond int) int {
		n := int(float64(perSecond*cfg.seconds) * cfg.scale)
		if cfg.trace {
			n /= 2
		}
		return max(n, 4*pipeline)
	}
	if cfg.trace {
		plan = make([]bool, tracedRounds)
		for i := range plan {
			plan[i] = i%2 == 1
		}
	}
	kinds := []phase{closedLoop}
	if sp.net {
		kinds = []phase{paced, closedLoop}
	}
	ops := map[phase]int{closedLoop: size(sp.roundOps), paced: size(sp.pacedOps)}
	spanRoom := 0
	if cfg.trace {
		spanRoom = 8 * (ops[closedLoop] + ops[paced]) * tracedRounds / 2
	}
	rec := tracefs.NewRecorder(spanRoom)
	g := &loadgen{cfg: cfg, sp: sp, rec: rec, name: registerNames(rec)}

	e, setup, lap, err := timedSetUp(cfg, sp, rec, g.name)
	if err != nil {
		return nil, err
	}
	g.e = e
	rep.set("setup_s", atNominalPace(setup, lap))
	rep.set("proc.setup_raw_s", setup.Seconds())
	rep.set("proc.calib_ms", float64(lap)/1e6)

	// Inputs for the warm-up (round 0) and every timed round, generated
	// before anything is timed.
	inputs := make(map[phase][][workers][]uint32)
	for k, kind := range kinds {
		for r := 0; r <= len(plan); r++ {
			inputs[kind] = append(inputs[kind], g.opStreams(100*k+r, ops[kind]))
		}
	}
	// Warm-up: one untimed round of each kind brings caches, the pool
	// and the tree to their running state.
	for _, kind := range kinds {
		if rd := g.round(kind, 0, inputs[kind][0], false); rd.err != nil {
			return nil, rd.err
		}
	}

	g.drains = nil // the warm-up's drain is not part of the measured window
	before := readCounters(e.st)
	groupsBefore := groupStats(e)
	sm := startSampler(e.st)
	var data []roundData
	for _, kind := range kinds {
		for r, traced := range plan {
			rd := g.round(kind, r+1, inputs[kind][r+1], traced)
			if rd.err != nil {
				return nil, rd.err
			}
			fmt.Fprintf(os.Stderr, "%-6s round %2d traced=%-5v ops=%d wall=%.3fs cpu=%.3fs ops/s=%.0f put p50/p99=%.2f/%.0f get p50/p99=%.2f/%.0f read_amp=%.4f failed=%d\n",
				kind, r+1, traced, rd.ops, rd.wall.Seconds(), rd.cpu.Seconds(), float64(rd.ops)/rd.wall.Seconds(),
				percentile(rd.puts, 0.5), percentile(rd.puts, 0.99), percentile(rd.gets, 0.5), percentile(rd.gets, 0.99), rd.readAmp, rd.failed)
			data = append(data, rd)
		}
	}
	// Embedded rounds each end drained; a run over the wire drains here.
	// Either way the counters below cover all rounds with their debt paid.
	if sp.net {
		if err := g.drain(); err != nil {
			return nil, err
		}
	}
	sm.finish()
	after := readCounters(e.st)
	groupsAfter := groupStats(e)
	applyMid := 0.0
	if h := e.st.db.ApplyLatency(); h.Count() > 0 {
		snap := h.Snapshot()
		applyMid = float64(snap.Quantile(0.5)) / 1e3
	}

	// Correctness pass.
	ts := time.Now()
	scanned, scanFailed, err := verifyScan(e)
	if err != nil {
		return nil, err
	}
	scanS := time.Since(ts).Seconds()
	levelFiles := 0
	for _, n := range e.st.db.NumLevelFiles() {
		levelFiles += n
	}
	if err := e.close(); err != nil {
		return nil, err
	}

	// ---- end-to-end metrics, and the four timings beside them ----
	pick := func(kind phase, traced bool) []*roundData {
		var out []*roundData
		for i := range data {
			if data[i].kind == kind && data[i].traced == traced {
				out = append(out, &data[i])
			}
		}
		return out
	}
	over := func(rs []*roundData, f func(*roundData) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = f(r)
		}
		return median(vs)
	}
	closedU, closedT := pick(closedLoop, false), pick(closedLoop, true)
	// Throughput and CPU come from the closed loop. Latency — the medians,
	// the tails and the limit — comes from the open-loop phase when there
	// is one: due time to reply, so a stall shows in every request it
	// delayed, and a request's time is its own and not its batch's.
	latU := closedU
	if sp.net {
		latU = pick(paced, false)
	}
	opsPerS := func(r *roundData) float64 { return float64(r.ops) / r.wall.Seconds() }
	rep.set("ops_per_s", over(closedU, opsPerS))
	rep.set("cpu_us_per_op", over(closedU, func(r *roundData) float64 { return ratio(float64(r.cpu)/1e3, float64(r.ops)) }))
	rep.set("put_mid_us", over(latU, func(r *roundData) float64 { return percentile(r.puts, 0.5) }))
	rep.set("get_mid_us", over(latU, func(r *roundData) float64 { return percentile(r.gets, 0.5) }))

	var puts, gets, opsTimed, inLimit, limitOps int64
	for i := range data {
		r := &data[i]
		puts += int64(len(r.puts))
		gets += int64(len(r.gets))
		opsTimed += int64(r.ops)
		rep.failed += r.failed
	}
	for _, r := range latU {
		inLimit += r.within(sp.limit)
		limitOps += int64(r.ops)
	}
	rep.attempted = opsTimed + scanned
	rep.failed += scanFailed
	rep.set("within_limit", ratio(float64(inLimit), float64(limitOps)))

	user := float64(puts * userBytes)
	fsW := after.fs.Sub(before.fs)
	total := fsW.Total()
	met := after.met.Sub(before.met)
	rep.set("write_amp", ratio(float64(total.BytesWritten), user))
	rep.set("read_amp", ratio(float64(met.TableDiskReads), float64(met.UserReads)))
	overDrains := func(f func(drainData) float64) float64 {
		vs := make([]float64, len(g.drains))
		for i, d := range g.drains {
			vs[i] = f(d)
		}
		return median(vs)
	}
	rep.set("space_amp", overDrains(func(d drainData) float64 { return ratio(float64(d.resident), float64(cfg.keys*userBytes)) }))

	// ---- per-layer metrics from counters ----
	fput, fget := float64(puts), float64(gets)
	rep.set("vfs.wal_bytes_per_user_byte", ratio(float64(fsW[tracefs.KindLog].BytesWritten), user))
	rep.set("vfs.sst_bytes_per_user_byte", ratio(float64(fsW[tracefs.KindSST].BytesWritten), user))
	rep.set("vfs.clidx_bytes_per_user_byte", ratio(float64(fsW[tracefs.KindCLIdx].BytesWritten), user))
	meta := fsW[tracefs.KindManifest].BytesWritten + fsW[tracefs.KindStore].BytesWritten + fsW[tracefs.KindOther].BytesWritten
	rep.set("vfs.manifest_bytes_per_user_byte", ratio(float64(meta), user))
	rep.set("vfs.write_ops_per_put", ratio(float64(total.WriteOps), fput))
	rep.set("vfs.syncs_per_kput", ratio(float64(total.Syncs)*1e3, fput))
	rep.set("vfs.read_ops_per_get", ratio(float64(total.ReadOps), fget))
	rep.set("vfs.read_bytes_per_get", ratio(float64(total.BytesRead), fget))

	rep.set("memtable.read_hit_share", ratio(float64(met.ReadsFromMem), float64(met.UserReads)))
	rep.set("memtable.hot_kept_per_flush", ratio(float64(met.HotKeysKeptInMem), float64(met.Flushes)))
	rep.set("memtable.flush_skips", float64(met.FlushSkips))

	hits, misses := after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses
	rep.set("sstable.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	rep.set("sstable.cache_evictions_per_kget", ratio(float64(after.cache.Evictions-before.cache.Evictions)*1e3, fget))
	rep.set("sstable.cache_rejects_per_kget", ratio(float64(after.cache.AdmissionRejects-before.cache.AdmissionRejects)*1e3, fget))
	rep.set("sstable.l0_files_mean", float64(sm.l0FilesSum)/float64(sm.n))
	rep.set("sstable.files_after_quiesce", float64(levelFiles))

	rep.set("compaction.count", float64(met.Compactions))
	rep.set("compaction.deferred", float64(met.CompactionsDeferred))
	rep.set("compaction.busy_s", met.CompactionTime.Seconds())
	rep.set("compaction.write_bytes_per_user_byte", ratio(float64(after.io[obs.SrcCompactionWrite]-before.io[obs.SrcCompactionWrite]), user))
	rep.set("compaction.read_bytes_per_user_byte", ratio(float64(after.io[obs.SrcCompactionRead]-before.io[obs.SrcCompactionRead]), user))
	rep.set("compaction.discarded_share", ratio(float64(met.EntriesDiscarded), float64(met.EntriesCompacted)))

	rep.set("lsm.flush_count", float64(met.Flushes))
	rep.set("lsm.flush_busy_s", met.FlushTime.Seconds())
	rep.set("lsm.flush_bytes_per_user_byte", ratio(float64(after.io[obs.SrcFlush]-before.io[obs.SrcFlush]), user))
	rep.set("lsm.stall_count", float64(met.WriteStalls))
	rep.set("lsm.stall_s", met.WriteStallTime.Seconds())
	rep.set("lsm.debt_bytes_before_quiesce", overDrains(func(d drainData) float64 { return float64(d.debt) }))
	rep.set("lsm.quiesce_s", overDrains(func(d drainData) float64 { return d.dur.Seconds() }))

	rep.set("bgsched.completed_tasks", float64(after.tasks-before.tasks))
	rep.set("bgsched.busy_share", sm.busy/float64(sm.n))
	rep.set("bgsched.queue_depth_max", float64(sm.queueMax))

	rep.set("shard.put_p99_us", over(latU, func(r *roundData) float64 { return percentile(r.puts, 0.99) }))
	rep.set("shard.get_p99_us", over(latU, func(r *roundData) float64 { return percentile(r.gets, 0.99) }))
	rep.set("shard.put_p999_us", over(latU, func(r *roundData) float64 { return percentile(r.puts, 0.999) }))
	rep.set("shard.get_p999_us", over(latU, func(r *roundData) float64 { return percentile(r.gets, 0.999) }))
	rep.set("shard.put_samples", over(latU, func(r *roundData) float64 { return float64(len(r.puts)) }))
	rep.set("shard.get_samples", over(latU, func(r *roundData) float64 { return float64(len(r.gets)) }))
	rep.set("shard.apply_mid_us", applyMid)
	var wmax, wsum float64
	for i := range after.shardWrites {
		w := float64(after.shardWrites[i] - before.shardWrites[i])
		wsum += w
		wmax = max(wmax, w)
	}
	rep.set("shard.write_imbalance", ratio(wmax*float64(len(after.shardWrites)), wsum))
	rep.set("shard.fullscan_keys_per_s", ratio(float64(scanned), scanS))

	rep.set("proc.rss_peak_mb", peakRSSMB())
	rep.set("proc.gc_cycles", float64(after.gcCycles-before.gcCycles))
	rep.set("proc.gc_pause_ms", float64(after.gcPause-before.gcPause)/1e6)

	if sp.net {
		all := func(r *roundData) []uint32 { return mergeSorted(r.puts, r.gets) }
		rep.set("server.ops_per_group", ratio(float64(groupsAfter.ops-groupsBefore.ops), float64(groupsAfter.batches-groupsBefore.batches)))
		rep.set("client.late_mid_us", over(latU, func(r *roundData) float64 { return percentile(r.late, 0.5) }))
		rep.set("client.late_max_us", over(latU, func(r *roundData) float64 { return percentile(r.late, 1) }))
		rep.set("client.paced_p99_us", over(latU, func(r *roundData) float64 { return percentile(all(r), 0.99) }))
		rep.set("client.saturate_mid_us", over(closedU, func(r *roundData) float64 { return percentile(all(r), 0.5) }))
		rep.set("client.send_flush_us_per_batch", over(closedU, func(r *roundData) float64 {
			return ratio(float64(r.sendFlush)/1e3, float64(r.batches))
		}))
	}
	if !cfg.trace {
		return rep, nil
	}

	// ---- traced rounds: spans and probes ----
	p, err := probe.Run(cfg.seed)
	if err != nil {
		return nil, err
	}
	for name, v := range p {
		rep.set(name, v)
	}
	rep.set("proc.trace_overhead_share", 1-ratio(over(closedT, opsPerS), over(closedU, opsPerS)))
	spanMetrics(rep, rec, sp, data)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, sp.name+".trace.json"))
	if err != nil {
		return nil, err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	return rep, f.Close()
}

type groupCount struct{ batches, ops int64 }

func groupStats(e *env) groupCount {
	if e.srv == nil {
		return groupCount{}
	}
	b, o := e.srv.GroupCommitStats()
	return groupCount{b, o}
}

func mergeSorted(a, b []uint32) []uint32 {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return out
}

// spanMetrics derives the traced-only metrics from the recorded spans.
func spanMetrics(rep *report, rec *tracefs.Recorder, sp spec, data []roundData) {
	spans := rec.Spans()
	names := rec.Names()
	agg := tracefs.Aggregate(spans, len(names))
	byName := make(map[string]tracefs.NameStats, len(names))
	for i, n := range names {
		byName[n] = agg[i]
	}
	var fsFg, fsBg int64
	for _, a := range agg[:tracefs.NumFSNames] {
		fsFg += a.ForegroundDur
		fsBg += a.Dur - a.ForegroundDur
	}
	// The foreground is whatever filesystem spans hang from: the driver's
	// own op spans when embedded; over the wire the client's spans run on
	// another goroutine than the server's filesystem calls, and the store
	// decorator's spans are the foreground.
	storeNs := byName["store.get"].Dur + byName["store.prepare"].Dur + byName["store.barrier"].Dur
	fgNs := byName["op.put"].Dur + byName["op.get"].Dur
	if sp.net {
		fgNs = storeNs
	}
	rep.set("vfs.fg_busy_share", ratio(float64(fsFg), float64(fgNs)))
	rep.set("vfs.bg_busy_s", float64(fsBg)/1e9)

	// Device reads issued under a get: reads of table, index or log
	// data whose parent span is a get, counting a read that continues
	// the previous one as the same access.
	getName := "op.get"
	if sp.net {
		getName = "store.get"
	}
	isGet := make(map[uint32]bool)
	for _, s := range spans {
		if names[s.Name] == getName {
			isGet[s.ID] = true
		}
	}
	var getReads int64
	for _, s := range spans {
		if s.Parent != 0 && !s.Contig && tracefs.IsDataRead(s.Name) && isGet[s.Parent] {
			getReads++
		}
	}
	rep.set("vfs.fg_sst_reads_per_get", ratio(float64(getReads), float64(len(isGet))))

	if !sp.net {
		return
	}
	perCall := func(n string) float64 {
		return ratio(float64(byName[n].Dur)/1e3, float64(byName[n].Count))
	}
	rep.set("server.store_get_us", perCall("store.get"))
	rep.set("server.store_prepare_us", perCall("store.prepare"))
	rep.set("server.barrier_wait_us", perCall("store.barrier"))
	// What a request spends outside the engine: codec, sockets, queues
	// and group-commit coalescing. Taken on the paced windows, where a
	// request's client-side time is its own and not its batch's. The
	// decorator's spans cover every traced window alike, so each request
	// is charged the mean store time per traced request.
	var clientNs, ops, tracedOps float64
	for i := range data {
		r := &data[i]
		if !r.traced {
			continue
		}
		tracedOps += float64(r.ops)
		if r.kind == paced {
			for _, l := range slices.Concat(r.puts, r.gets) {
				clientNs += float64(l)
			}
			ops += float64(r.ops)
		}
	}
	rep.set("server.self_us_per_op", (ratio(clientNs, ops)-ratio(float64(storeNs), tracedOps))/1e3)
}
