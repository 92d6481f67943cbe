package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/bench/tracefs"
	"repro/internal/lsm"
)

func smokeConfig(workload string, trace bool, dir string) config {
	return config{
		workload: workload, seed: 7, seconds: 12, trace: trace,
		keys: 20_000, scale: 1.0 / 200, outDir: dir,
	}
}

// TestSmoke runs all four workloads at 1/200 scale — three untraced,
// net_mixed traced, which between them produce every metric — and checks
// that no operation failed and that every metric this benchmark names is
// reported. It keeps the benchmark compiling and honest as the store's
// API moves.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	seen := make(map[string]bool)
	for _, sp := range specs {
		rep, err := run(smokeConfig(sp.name, sp.net, dir))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", sp.name, rep.failed, rep.attempted)
		}
		for _, d := range endToEnd {
			// Every end-to-end metric must be a real measurement.
			v, ok := rep.vals[d.name]
			if !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", sp.name, d.name, v, ok)
			}
		}
		for name := range rep.vals {
			seen[name] = true
		}
	}
	known := make(map[string]bool)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			known[d.name] = true
			if !seen[d.name] {
				t.Errorf("metric %s (%s) was never reported", d.name, d.unit)
			}
			if d.unit == "" || (d.better != "lower" && d.better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", d.name, d.unit, d.better)
			}
		}
	}
	for name := range seen {
		if !known[name] {
			t.Errorf("reported metric %s is in neither table", name)
		}
	}
	if st, err := os.Stat(filepath.Join(dir, "net_mixed.trace.json")); err != nil || st.Size() == 0 {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

// TestCorrectnessPassCatchesCorruption shows the final scan failing when
// the oracle and the store disagree about one value.
func TestCorrectnessPassCatchesCorruption(t *testing.T) {
	sp, _ := findSpec("ingest_uniform")
	cfg := smokeConfig(sp.name, false, t.TempDir())
	rec := tracefs.NewRecorder(0)
	names := registerNames(rec)
	e, err := buildEnv(cfg, sp, rec, names)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	g := &loadgen{cfg: cfg, sp: sp, e: e, rec: rec, name: names}
	if rd := g.closedRound(g.opStreams(1, 2000), false); rd.failed != 0 || rd.err != nil {
		t.Fatalf("round failed: %d operations, err %v", rd.failed, rd.err)
	}
	if n, failed, err := verifyScan(e); err != nil || failed != 0 || n != int64(cfg.keys) {
		t.Fatalf("clean scan: %d keys, %d failed, err %v", n, failed, err)
	}
	e.o.ver[4321]++ // the oracle now expects a value nobody wrote
	if _, failed, err := verifyScan(e); err != nil || failed != 1 {
		t.Fatalf("scan after corrupting the oracle: %d failed (want 1), err %v", failed, err)
	}
	e.o.ver[4321]--
	// A read of that key must be caught too.
	key := make([]byte, keyLen)
	putKey(key, 4321)
	v, err := e.st.db.Get(key)
	if err != nil || !e.o.matches(v, 4321, e.o.ver[4321]) || e.o.matches(v, 4321, e.o.ver[4321]+1) {
		t.Fatalf("oracle check on a single read is wrong (err %v)", err)
	}
}

// TestTracedStore checks the server.Store decorator: it counts every
// intercepted call, records spans only while tracing, and costs no
// allocation while not.
func TestTracedStore(t *testing.T) {
	rec := tracefs.NewRecorder(16)
	st, o, err := setUp(2000, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.db.Close()
	ts := &tracedStore{DB: st.db, rec: rec, name: registerNames(rec)}
	key := make([]byte, keyLen)
	putKey(key, 10)

	base := testing.AllocsPerRun(100, func() { st.db.GetTraced(key, nil) })
	if got := testing.AllocsPerRun(100, func() { ts.GetTraced(key, nil) }); got != base {
		t.Errorf("decorated Get allocates %v, bare %v", got, base)
	}
	before := ts.gets.Load()
	v, err := ts.Get(key)
	if err != nil || !o.matches(v, 10, 1) {
		t.Fatalf("Get through the decorator: err %v", err)
	}
	b := &lsm.Batch{}
	b.Put(key, v)
	c, err := ts.Prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	ts.WaitCommitted(c.Epoch())
	if ts.gets.Load() != before+1 || ts.prepares.Load() != 1 || ts.barriers.Load() != 1 {
		t.Fatalf("counts: gets %d prepares %d barriers %d", ts.gets.Load()-before, ts.prepares.Load(), ts.barriers.Load())
	}
	if n := len(rec.Spans()); n != 0 {
		t.Fatalf("%d spans recorded while off", n)
	}
	rec.SetOn(true)
	ts.Get(key)
	rec.SetOn(false)
	spans := rec.Spans()
	if len(spans) == 0 || rec.Names()[spans[len(spans)-1].Name] != "store.get" {
		t.Fatalf("traced Get recorded %d spans", len(spans))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the tables
// the program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q", i, w.Name, len(w.Why), specs[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, want[i])
			}
			// The issue's ceiling is 10 %. setup_s is exempt: the benchmark
			// contract requires it end to end with the largest bound (at
			// most 25 %), and a timing on this host cannot hold 10 %.
			ceiling := 0.10
			if m.Name == "setup_s" {
				ceiling = 0.25
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > ceiling)) {
				t.Errorf("%s %s: bound %v, ceiling %v", kind, m.Name, m.Bound, ceiling)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Command) == 0 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, command %v, paths %v", b.RunSeconds, b.Command, b.Paths)
	}
}
