package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	triad "repro"
	"repro/internal/client"
	"repro/internal/vfs"
)

// syncBuffer is a goroutine-safe bytes.Buffer: run() writes from the
// server goroutine while the test reads after exit.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServerSmoke is the CI smoke: start triadserver on a random port,
// drive a few hundred ops through internal/client, SIGTERM the process,
// and assert a clean exit. Runs under -race in CI.
func TestServerSmoke(t *testing.T) {
	var stdout, stderr syncBuffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run(
			[]string{"-addr", "127.0.0.1:0", "-shards", "2", "-metrics", "127.0.0.1:0", "-trace-sample", "1"},
			&stdout, &stderr,
			func(addr string) { ready <- addr },
		)
	}()

	var addr string
	select {
	case addr = <-ready:
	case code := <-exit:
		t.Fatalf("server exited early with %d\nstderr: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := c.Send("SET", []byte(fmt.Sprintf("smoke-%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, err := c.Receive(); err != nil || v.Text() != "OK" {
			t.Fatalf("reply %d: %v %v", i, v, err)
		}
	}
	for i := 0; i < n; i += 37 {
		key := []byte(fmt.Sprintf("smoke-%04d", i))
		v, found, err := c.Get(key)
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q, %v, %v", key, v, found, err)
		}
	}
	if stats, err := c.Stats(); err != nil || !strings.Contains(stats, "shards: 2") {
		t.Fatalf("STATS: %v\n%s", err, stats)
	}
	// STATS carries the ledger's WA decomposition once user bytes landed.
	if stats, _ := c.Stats(); !strings.Contains(stats, "WA decomposition") {
		t.Fatalf("STATS missing WA decomposition:\n%s", stats)
	}

	// With -trace-sample 1 every command is traced: TRACE RECENT has the
	// traffic above, and TRACE GET resolves one id to a span breakdown.
	recent, err := c.TraceRecent(10)
	if err != nil || len(recent) == 0 {
		t.Fatalf("TRACE RECENT: %d traces, %v", len(recent), err)
	}
	var traceID uint64
	if _, err := fmt.Sscanf(recent[0], "#%d", &traceID); err != nil {
		t.Fatalf("unparseable TRACE RECENT line %q: %v", recent[0], err)
	}
	if rendered, found, err := c.TraceGet(traceID); err != nil || !found || !strings.Contains(rendered, "decode") {
		t.Fatalf("TRACE GET %d = found=%v err=%v\n%s", traceID, found, err, rendered)
	}

	// A paged SCAN / SCAN CONT / SCAN CLOSE round trip: open a cursor
	// with a small page, resume it once, then release it early.
	cursor, keys, _, err := c.ScanOpen([]byte("smoke-"), []byte("smoke-z"), 50)
	if err != nil {
		t.Fatal(err)
	}
	if cursor == client.DoneCursor || len(keys) != 50 {
		t.Fatalf("SCAN first page: cursor=%q, %d keys", cursor, len(keys))
	}
	cursor2, keys2, _, err := c.ScanCont(cursor, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cursor2 != cursor || len(keys2) != 50 || string(keys2[0]) != "smoke-0050" {
		t.Fatalf("SCAN CONT: cursor=%q, %d keys, first %q", cursor2, len(keys2), keys2[0])
	}
	if err := c.ScanClose(cursor); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ScanCont(cursor, 50); err == nil {
		t.Fatal("SCAN CONT after CLOSE succeeded")
	}
	// Paging through everything still works end to end.
	if ks, _, err := c.ScanAll([]byte("smoke-"), []byte("smoke-z")); err != nil || len(ks) != n {
		t.Fatalf("ScanAll: %d keys, %v", len(ks), err)
	}

	// Scrape /metrics after the traffic above: the exposition must carry
	// the latency histograms (with buckets), the commit-stage timings,
	// and the per-shard gauges for both shards.
	var metricsURL string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
			metricsURL = rest
		}
	}
	if metricsURL == "" {
		t.Fatalf("no metrics address in stdout:\n%s", stdout.String())
	}
	res, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	dump := string(body)
	for _, want := range []string{
		`triad_cmd_latency_seconds_bucket{cmd="set",le="+Inf"}`,
		`triad_cmd_latency_seconds_bucket{cmd="get",le="+Inf"}`,
		`triad_commit_stage_latency_seconds_bucket{stage="coalesce",le="+Inf"}`,
		`triad_commit_stage_latency_seconds_bucket{stage="commit",le="+Inf"}`,
		`triad_apply_latency_seconds_count`,
		`triad_shard_write_amplification{shard="1"}`,
		`triad_io_bytes_total{shard="0",source="wal"}`,
		`triad_io_bytes_total{shard="1",source="user_write"}`,
		"triad_user_writes_total",
		"triad_journal_dropped_total",
		"triad_traces_sampled_total",
		"# TYPE triad_cmd_latency_seconds histogram",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
	// /debug/trace on the same listener renders the sampled traces.
	base := metricsURL[:strings.LastIndex(metricsURL, "/")]
	if res, err := http.Get(base + "/debug/trace?n=3"); err != nil {
		t.Fatal(err)
	} else {
		tbody, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if !strings.Contains(string(tbody), "traces sampled") || !strings.Contains(string(tbody), "decode") {
			t.Errorf("/debug/trace dump unexpected:\n%s", tbody)
		}
	}
	// The SETs above must be visible in the set-family histogram.
	if !strings.Contains(dump, `triad_cmd_latency_seconds_count{cmd="set"} `+fmt.Sprint(n)) {
		t.Errorf("set latency count != %d in dump", n)
	}
	// Profiling stays off without -pprof.
	if res, err := http.Get(metricsURL[:strings.LastIndex(metricsURL, "/")] + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Errorf("/debug/pprof/ without -pprof: status %d, want 404", res.StatusCode)
		}
	}

	// Deliver a real SIGTERM to the process; run()'s handler must drain
	// and exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("server did not exit on SIGTERM\nstdout: %s", stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "served") {
		t.Fatalf("unexpected shutdown transcript:\n%s", out)
	}
	if s := stderr.String(); s != "" {
		t.Fatalf("stderr not empty:\n%s", s)
	}
}

// TestBadFlags: malformed, removed or out-of-range flags exit 2 with the
// usage text — none of them hang, and none selects a hidden mode. Every
// row listens on a free loopback port, so a row whose flags are accepted
// fails within seconds as "server started", and is then stopped as
// TestServerSmoke stops its server.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string // substring the diagnostic must carry
	}{
		{"removed partitioner flag", []string{"-partitioner", "range"}, 2, "Usage of triadserver"},
		{"removed splits flag", []string{"-splits", "g,n"}, 2, "Usage of triadserver"},
		{"unknown flag", []string{"-not-a-flag"}, 2, "Usage of triadserver"},
		{"removed commit flag", []string{"-commit-delay", "1ms"}, 2, "Usage of triadserver"},
		{"negative bg-workers", []string{"-bg-workers", "-1"}, 2, "Usage of triadserver"},
		{"negative bg-workers names the flag", []string{"-bg-workers=-3"}, 2, "-bg-workers -3"},
		{"zero shards", []string{"-shards", "0"}, 2, "-shards 0"},
		{"negative shards", []string{"-shards", "-3"}, 2, "-shards -3"},
		{"negative cache-bytes", []string{"-cache-bytes", "-5"}, 2, "-cache-bytes -5"},
		{"negative cache-bytes prints usage", []string{"-cache-bytes", "-5"}, 2, "Usage of triadserver"},
		{"negative slowlog-threshold", []string{"-slowlog-threshold", "-1ms"}, 2, "-slowlog-threshold -1ms"},
		{"removed trace-keep flag", []string{"-trace-keep", "64"}, 2, "flag provided but not defined: -trace-keep"},
		{"zero max-cursors", []string{"-max-cursors", "0"}, 2, "-max-cursors 0"},
		{"negative max-cursors", []string{"-max-cursors", "-2"}, 2, "-max-cursors -2"},
		{"zero cursor-ttl", []string{"-cursor-ttl", "0s"}, 2, "-cursor-ttl 0s"},
		{"negative cursor-ttl", []string{"-cursor-ttl", "-5s"}, 2, "-cursor-ttl -5s"},
		{"negative trace-sample", []string{"-trace-sample", "-0.5"}, 2, "-trace-sample -0.5"},
		{"trace-sample above 1", []string{"-trace-sample", "1.5"}, 2, "-trace-sample 1.5"},
	} {
		var stdout, stderr syncBuffer
		ready := make(chan string, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &stdout, &stderr, func(addr string) { ready <- addr })
		}()
		var code int
		select {
		case code = <-exit:
		case <-ready:
			t.Errorf("%s: server started", tc.name)
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case code = <-exit:
			case <-time.After(20 * time.Second):
				t.Fatalf("%s: server did not exit on SIGTERM", tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: neither exited nor started serving", tc.name)
		}
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstderr: %s", tc.name, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.name, tc.stderr, stderr.String())
		}
	}
}

// TestRefusesShardedDirUnsharded: pointing a default (-shards 1) server
// at the root of a sharded store must fail fast, not serve an empty
// keyspace.
func TestRefusesShardedDirUnsharded(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir+"/shard-000", 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr syncBuffer
	if code := run([]string{"-addr", "127.0.0.1:0", "-dir", dir}, &stdout, &stderr, nil); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "created sharded") {
		t.Fatalf("missing guidance in error: %s", stderr.String())
	}
}

// serve runs the server on a loopback port with args until the returned
// stop, which delivers SIGTERM and requires a clean exit. It returns the
// RESP address and, with -metrics, the /metrics URL.
func serve(t *testing.T, args ...string) (addr, metricsURL string, stop func()) {
	t.Helper()
	var stdout, stderr syncBuffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &stdout, &stderr,
			func(addr string) { ready <- addr })
	}()
	select {
	case addr = <-ready:
	case code := <-exit:
		t.Fatalf("server exited early with %d\nstderr: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
			metricsURL = rest
		}
	}
	return addr, metricsURL, func() {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
			}
		case <-time.After(20 * time.Second):
			t.Fatal("server did not exit on SIGTERM")
		}
	}
}

// TestServesTriaddbStores: triadserver serves the stores triaddb writes,
// both open through triad.Open with the same layout — one shard with its
// files at the root of the directory, N shards under shard-NNN.
func TestServesTriaddbStores(t *testing.T) {
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		// What `triaddb -dir DIR [-shards N] put k v` does.
		opts := triad.Options{Profile: triad.ProfileTriad}
		if shards > 1 {
			opts.Shards, opts.ShardFS = shards, triad.ShardDirs(dir)
		} else {
			fs, err := vfs.NewOSFS(dir)
			if err != nil {
				t.Fatal(err)
			}
			opts.FS = fs
		}
		db, err := triad.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		_, rootErr := os.Stat(filepath.Join(dir, "STORE"))
		_, shardErr := os.Stat(filepath.Join(dir, "shard-000"))
		if (shards == 1) != (rootErr == nil) || (shards == 1) == (shardErr == nil) {
			t.Fatalf("%d shard(s): STORE at the root: %v, shard-000/: %v", shards, rootErr == nil, shardErr == nil)
		}

		addr, _, stop := serve(t, "-dir", dir, "-shards", strconv.Itoa(shards))
		var v []byte
		var found bool
		c, err := client.Dial(addr)
		if err == nil {
			v, found, err = c.Get([]byte("k"))
			c.Close()
		}
		stop()
		if err != nil || !found || string(v) != "v" {
			t.Fatalf("%d shard(s): GET k = %q, found=%v, err=%v", shards, v, found, err)
		}
	}
}

// TestCacheBytesIsStoreWide: -cache-bytes sizes the one cache every
// shard shares, so two shards report the budget, not twice it.
func TestCacheBytesIsStoreWide(t *testing.T) {
	_, metricsURL, stop := serve(t, "-shards", "2", "-cache-bytes", "1048576", "-metrics", "127.0.0.1:0")
	defer stop()
	res, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\ntriad_block_cache_capacity_bytes 1048576\n") {
		t.Fatalf("metrics lack a 1048576-byte store-wide cache capacity:\n%s", body)
	}
}
