package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/resp"
	"repro/internal/server"
)

// scrape fetches path from the server's metrics handler.
func scrape(t *testing.T, srv *server.Server, pprof bool, path string) (*http.Response, string) {
	t.Helper()
	ts := httptest.NewServer(srv.MetricsHandler(pprof))
	defer ts.Close()
	res, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

// TestMetricsExpositionFormat is the promlint-style pin: it parses the
// entire /metrics dump of a 1-shard and a 3-shard store line by line and
// enforces the text-format 0.0.4 rules and the Prometheus naming
// conventions (see checkExposition). Every series the server emits is in
// the scrape, so a new one is held to them without an edit here. Both
// stores must expose the same families: a name built from a shard
// number would grow the family set with the store instead of a label.
func TestMetricsExpositionFormat(t *testing.T) {
	families := map[int]map[string]bool{}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			families[shards] = checkExposition(t, shards)
		})
	}
	if t.Failed() {
		return
	}
	for a, b := range map[int]int{1: 3, 3: 1} {
		for name := range families[a] {
			if !families[b][name] {
				t.Errorf("family %q is exposed by a %d-shard store but not by a %d-shard one", name, a, b)
			}
		}
	}
}

// nonBaseUnits are unit suffixes Prometheus names spell in base units.
var nonBaseUnits = []string{
	"_ms", "_millis", "_milliseconds", "_us", "_micros", "_microseconds",
	"_ns", "_nanos", "_nanoseconds", "_sec", "_secs",
	"_byte", "_kb", "_mb", "_gb", "_kib", "_mib", "_gib",
}

var metricNameRE = regexp.MustCompile(`^triad(_[a-z0-9]+)+$`)

// checkExposition scrapes a store of the given shard count after some
// traffic and checks the dump: every sample preceded by # HELP and
// # TYPE for its metric; triad_* snake_case names; _total on counters
// and nowhere else; no non-base units; histograms named in _seconds or
// _bytes and carrying cumulative _bucket{le} / _sum / _count series,
// suffixes no other family may end in; each family's samples in one
// group, not split by another family's (text format 0.0.4), which a
// per-shard or per-level family breaks if emitted shard by shard; and the
// versioned Content-Type. It returns the set of family names.
func checkExposition(t *testing.T, shards int) map[string]bool {
	db := newTestStore(t, shards)
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	for i := 0; i < 64; i++ {
		if err := c.Set([]byte(fmt.Sprintf("fmt-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get([]byte("fmt-00")); err != nil {
		t.Fatal(err)
	}

	res, text := scrape(t, srv, false, "/metrics")
	if ct := res.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4; charset=utf-8", ct)
	}

	typeOf := map[string]string{} // metric name -> declared TYPE
	helped := map[string]bool{}
	families := map[string]bool{}
	// lastBucket[name|labels-without-le] tracks cumulative bucket counts.
	lastBucket := map[string]uint64{}
	// group is the family of the samples so far in the current group, and
	// ended the families whose group a later family's sample closed.
	group, ended := "", map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.SplitN(line, " ", 4)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if f[1] == "HELP" {
				helped[f[2]] = true
				continue
			}
			name, typ := f[2], f[3]
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, typ)
			}
			typeOf[name] = typ
			families[name] = true
			checkMetricName(t, ln+1, name, typ)
			continue
		}
		// Sample line: name{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(valStr, 64); err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		name := series
		labels := ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, series)
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && typeOf[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		typ, ok := typeOf[base]
		if !ok || !helped[base] {
			t.Fatalf("line %d: sample %q precedes its # HELP/# TYPE", ln+1, series)
		}
		if base != group {
			if ended[base] {
				t.Errorf("line %d: sample %q resumes family %s after other families' samples", ln+1, series, base)
			}
			ended[group], group = true, base
		}
		if typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			if !strings.Contains(labels, `le="`) {
				t.Fatalf("line %d: _bucket sample without le label: %q", ln+1, line)
			}
			key := base + "|" + stripLe(labels)
			v, _ := strconv.ParseUint(valStr, 10, 64)
			if v < lastBucket[key] {
				t.Errorf("line %d: histogram %q buckets not cumulative", ln+1, key)
			}
			lastBucket[key] = v
		}
	}

	// The required series: one histogram per command family, one per
	// pipeline stage, per-shard WA/RA gauges, apply latency.
	for _, fam := range []string{"get", "set", "del", "mget", "mset", "scan"} {
		want := fmt.Sprintf(`triad_cmd_latency_seconds_bucket{cmd="%s",le="+Inf"}`, fam)
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %s", want)
		}
	}
	for _, stage := range []string{"coalesce", "epoch_wait", "commit", "reply_flush"} {
		want := fmt.Sprintf(`triad_commit_stage_latency_seconds_bucket{stage="%s",le="+Inf"}`, stage)
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %s", want)
		}
	}
	for shardN := 0; shardN < shards; shardN++ {
		for _, g := range []string{"triad_shard_write_amplification", "triad_shard_read_amplification", "triad_shard_disk_bytes"} {
			want := fmt.Sprintf(`%s{shard="%d"}`, g, shardN)
			if !strings.Contains(text, want) {
				t.Errorf("dump missing %s", want)
			}
		}
	}
	if !strings.Contains(text, "triad_apply_latency_seconds_count") {
		t.Error("dump missing triad_apply_latency_seconds")
	}

	// The SETs must be visible in the set-family histogram count.
	if !strings.Contains(text, `triad_cmd_latency_seconds_count{cmd="set"} 64`) {
		t.Error("set-family histogram count != 64")
	}
	if t.Failed() {
		t.Logf("dump:\n%s", text)
	}
	return families
}

// checkMetricName holds the family name declared on line ln to the
// Prometheus naming conventions for its type.
func checkMetricName(t *testing.T, ln int, name, typ string) {
	t.Helper()
	if !metricNameRE.MatchString(name) {
		t.Errorf("line %d: metric %q is not triad_* snake_case", ln, name)
	}
	hasTotal := strings.HasSuffix(name, "_total")
	if typ == "counter" && !hasTotal {
		t.Errorf("line %d: counter %q does not end in _total", ln, name)
	}
	if typ != "counter" && hasTotal {
		t.Errorf("line %d: %s %q ends in _total, the counter suffix", ln, typ, name)
	}
	unit := strings.TrimSuffix(name, "_total")
	for _, bad := range nonBaseUnits {
		if strings.HasSuffix(unit, bad) {
			t.Errorf("line %d: metric %q has unit suffix %s; use _seconds or _bytes", ln, name, bad)
		}
	}
	if typ == "histogram" && !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
		t.Errorf("line %d: histogram %q does not end in _seconds or _bytes", ln, name)
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			t.Errorf("line %d: metric %q ends in %s, reserved for histogram series", ln, name, suf)
		}
	}
}

func stripLe(labels string) string {
	parts := strings.Split(labels, ",")
	out := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, "le=") {
			out = append(out, p)
		}
	}
	return strings.Join(out, ",")
}

// TestEventsAfterFlush drives writes through the server, forces a FLUSH,
// and asserts EVENTS returns flush events carrying durations and byte
// counts — through both the RESP command and /debug/events.
func TestEventsAfterFlush(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	val := make([]byte, 512)
	for i := 0; i < 128; i++ {
		if err := c.Set([]byte(fmt.Sprintf("ev-%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushStore(); err != nil {
		t.Fatal(err)
	}

	v, err := c.Do("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != resp.TypeArray {
		t.Fatalf("EVENTS reply type = %c, want array", v.Type)
	}
	if len(v.Elems) == 0 {
		t.Fatal("EVENTS returned no events after FLUSH")
	}
	var flushes int
	for _, e := range v.Elems {
		line := e.Text()
		if !strings.Contains(line, "flush") {
			continue
		}
		flushes++
		if !strings.Contains(line, "dur=") {
			t.Errorf("flush event missing duration: %q", line)
		}
		if !strings.Contains(line, "in=") || !strings.Contains(line, "B") {
			t.Errorf("flush event missing byte counts: %q", line)
		}
		if !strings.Contains(line, "shard=") {
			t.Errorf("flush event missing shard label: %q", line)
		}
	}
	if flushes == 0 {
		t.Fatalf("no flush events among %d events", len(v.Elems))
	}

	// EVENTS 1 caps the reply.
	v, err = c.Do("EVENTS", []byte("1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Elems) != 1 {
		t.Fatalf("EVENTS 1 returned %d events", len(v.Elems))
	}

	_, body := scrape(t, srv, false, "/debug/events")
	if !strings.Contains(body, "flush") || !strings.Contains(body, "dur=") {
		t.Errorf("/debug/events missing flush events:\n%s", body)
	}
}

// TestSlowlog drives commands over a zero threshold so everything is
// slow, then exercises SLOWLOG GET/LEN/RESET.
func TestSlowlog(t *testing.T) {
	db := newTestStore(t, 1)
	srv, addr := startServer(t, db, server.Config{SlowlogThreshold: time.Nanosecond})
	c := dial(t, addr)
	if err := c.Set([]byte("slow-key"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get([]byte("slow-key")); err != nil {
		t.Fatal(err)
	}

	v, err := c.Do("SLOWLOG", []byte("GET"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Elems) < 2 {
		t.Fatalf("SLOWLOG GET returned %d entries, want >= 2", len(v.Elems))
	}
	joined := v.Elems[0].Text() + v.Elems[1].Text()
	if !strings.Contains(joined, "slow-key") {
		t.Errorf("slowlog entries missing key preview: %q", joined)
	}

	v, err = c.Do("SLOWLOG", []byte("LEN"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != resp.TypeInt || v.Int < 2 {
		t.Fatalf("SLOWLOG LEN = %v, want >= 2", v.Int)
	}

	if v, err = c.Do("SLOWLOG", []byte("RESET")); err != nil || v.IsError() {
		t.Fatalf("SLOWLOG RESET: %v %v", err, v)
	}
	if v, err = c.Do("SLOWLOG", []byte("LEN")); err != nil || v.Int != 0 {
		t.Fatalf("SLOWLOG LEN after RESET = %v (err %v), want 0", v.Int, err)
	}

	_, body := scrape(t, srv, false, "/debug/slowlog")
	if !strings.Contains(body, "threshold") {
		t.Errorf("/debug/slowlog missing header:\n%s", body)
	}
}

// TestPprofGate checks the profiling surface is opt-in: 404 without the
// flag, a real profile with it.
func TestPprofGate(t *testing.T) {
	db := newTestStore(t, 1)
	srv, _ := startServer(t, db, server.Config{})

	res, _ := scrape(t, srv, false, "/debug/pprof/profile?seconds=1")
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: /debug/pprof/profile status = %d, want 404", res.StatusCode)
	}
	// The metrics dump must still be reachable at / and /metrics.
	if res, _ := scrape(t, srv, false, "/"); res.StatusCode != http.StatusOK {
		t.Errorf("/ status = %d, want 200", res.StatusCode)
	}

	res, body := scrape(t, srv, true, "/debug/pprof/profile?seconds=1")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: /debug/pprof/profile status = %d, body %q", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("profile Content-Type = %q, want application/octet-stream", ct)
	}
	if len(body) == 0 {
		t.Error("profile body empty")
	}
}

// TestStatsQuantileTable checks STATS carries the per-family latency
// table after traffic.
func TestStatsQuantileTable(t *testing.T) {
	db := newTestStore(t, 1)
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	for i := 0; i < 16; i++ {
		if err := c.Set([]byte(fmt.Sprintf("q-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get([]byte(fmt.Sprintf("q-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"command latency", "p99.9", "set", "get", "commit pipeline stages", "coalesce"} {
		if !strings.Contains(stats, want) {
			t.Errorf("STATS missing %q:\n%s", want, stats)
		}
	}
}

// gaugeOf returns the value of series in a /metrics dump.
func gaugeOf(t *testing.T, text, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("dump missing %s", series)
	return 0
}

// TestL0LogGauges: per shard, triad_l0_log_bytes is the commit log the
// shard's L0 CL-SSTables pin and triad_l0_log_ceiling_bytes the ceiling
// the picker holds it to, at least six full logs; STATS says the same,
// and a drain leaves L0 pinning nothing.
func TestL0LogGauges(t *testing.T) {
	db := newTestStore(t, 2)
	srv, _ := startServer(t, db, server.Config{})
	for i := 0; i < 4000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("g-%05d", i)), []byte(strings.Repeat("v", 100))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	const floor = 6 << 20 // newTestStore's 1 MiB logs
	_, text := scrape(t, srv, false, "/metrics")
	for i := 0; i < 2; i++ {
		l0 := db.Shard(i).LevelStats()[0]
		logs := gaugeOf(t, text, fmt.Sprintf(`triad_l0_log_bytes{shard="%d"}`, i))
		ceiling := gaugeOf(t, text, fmt.Sprintf(`triad_l0_log_ceiling_bytes{shard="%d"}`, i))
		if logs == 0 || logs != l0.LogBytes || ceiling != l0.LogCeiling || ceiling < floor {
			t.Fatalf("shard %d: gauges say L0 pins %d B of a %d B ceiling; its level stats say %d B of %d B",
				i, logs, ceiling, l0.LogBytes, l0.LogCeiling)
		}
	}
	if _, stats := scrape(t, srv, false, "/stats"); !strings.Contains(stats, "s1: L0 pins ") {
		t.Fatalf("/stats does not show what L0 pins:\n%s", stats)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	_, text = scrape(t, srv, false, "/metrics")
	for i := 0; i < 2; i++ {
		if logs := gaugeOf(t, text, fmt.Sprintf(`triad_l0_log_bytes{shard="%d"}`, i)); logs != 0 {
			t.Fatalf("shard %d: L0 pins %d B of log after a drain", i, logs)
		}
	}
}
