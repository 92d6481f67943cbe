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

	"repro/internal/obs"
	"repro/internal/server"
)

// parseSpanLines extracts the (offset, kind) sequence from a TRACE GET /
// /debug/trace rendering: lines of the form "  +<offset> <kind> <dur>".
func parseSpanLines(t *testing.T, rendered string) (offs []time.Duration, kinds []string) {
	t.Helper()
	for _, line := range strings.Split(rendered, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "+") {
			continue
		}
		off, err := time.ParseDuration(strings.TrimPrefix(f[0], "+"))
		if err != nil {
			t.Fatalf("bad span offset %q in %q: %v", f[0], line, err)
		}
		offs = append(offs, off)
		kinds = append(kinds, f[1])
	}
	return offs, kinds
}

// TestTraceRoundTrip drives traffic at -trace-sample 1 and checks the
// whole surface: TRACE RECENT summaries, TRACE GET span breakdowns with
// monotone offsets and the expected pipeline spans, and /debug/trace.
func TestTraceRoundTrip(t *testing.T) {
	db := newTestStore(t, 4)
	srv, addr := startServer(t, db, server.Config{TraceSample: 1})
	c := dial(t, addr)

	for i := 0; i < 5; i++ {
		k := []byte(fmt.Sprintf("trace-key-%d", i))
		if err := c.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}

	// The writer finishes a trace just after flushing its reply, so the
	// client can win the race to TRACE RECENT by a hair; poll briefly.
	var recent []string
	deadline := time.Now().Add(2 * time.Second)
	for {
		var err error
		recent, err = c.TraceRecent(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recent) >= 10 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(recent) < 10 {
		t.Fatalf("TRACE RECENT returned %d traces, want >= 10:\n%s", len(recent), strings.Join(recent, "\n"))
	}

	idRe := regexp.MustCompile(`^#(\d+) .* (GET|SET) "trace-key-\d+" dur=`)
	// recent is newest first; keep the newest SET and GET so they are
	// still inside the /debug/trace?n=5 window checked below.
	var setID, getID uint64
	for _, line := range recent {
		m := idRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unexpected TRACE RECENT line %q", line)
		}
		id, _ := strconv.ParseUint(m[1], 10, 64)
		switch {
		case m[2] == "SET" && setID == 0:
			setID = id
		case m[2] == "GET" && getID == 0:
			getID = id
		}
	}
	if setID == 0 || getID == 0 {
		t.Fatalf("missing SET/GET traces in:\n%s", strings.Join(recent, "\n"))
	}

	wantSpans := func(id uint64, want ...string) string {
		t.Helper()
		rendered, found, err := c.TraceGet(id)
		if err != nil || !found {
			t.Fatalf("TRACE GET %d = found=%v err=%v", id, found, err)
		}
		offs, kinds := parseSpanLines(t, rendered)
		for i := 1; i < len(offs); i++ {
			if offs[i] < offs[i-1] {
				t.Fatalf("trace #%d offsets not monotone: %v\n%s", id, offs, rendered)
			}
		}
		have := make(map[string]bool, len(kinds))
		for _, k := range kinds {
			have[k] = true
		}
		for _, w := range want {
			if !have[w] {
				t.Fatalf("trace #%d missing span %q:\n%s", id, w, rendered)
			}
		}
		return rendered
	}

	// A SET rides the group-commit pipeline end to end.
	setRendered := wantSpans(setID, "decode", "coalesce", "epoch_wait",
		"wal_append", "memtable_apply", "commit", "reply_flush")
	// The decode span must come first in the timeline.
	if _, kinds := parseSpanLines(t, setRendered); kinds[0] != "decode" {
		t.Fatalf("SET trace does not start with decode:\n%s", setRendered)
	}
	// A GET after a write pays the read-your-writes barrier.
	wantSpans(getID, "decode", "barrier", "reply_flush")

	// Unknown id: null reply, no error.
	if _, found, err := c.TraceGet(1 << 60); err != nil || found {
		t.Fatalf("TRACE GET unknown = found=%v err=%v", found, err)
	}
	if _, err := c.Do("TRACE", []byte("BOGUS")); err == nil {
		t.Fatal("TRACE BOGUS did not error")
	}

	// /debug/trace serves the same ring over HTTP.
	ts := httptest.NewServer(srv.MetricsHandler(false))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/trace?n=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "traces sampled") {
		t.Fatalf("/debug/trace header missing: %q", body)
	}
	if !strings.Contains(string(body), fmt.Sprintf("#%d ", setID)) &&
		!strings.Contains(string(body), fmt.Sprintf("#%d ", getID)) {
		t.Fatalf("/debug/trace shows neither recent trace:\n%s", body)
	}
	if !strings.Contains(string(body), "reply_flush") {
		t.Fatalf("/debug/trace renders no spans:\n%s", body)
	}

	// The sampled counter is on /metrics.
	if !strings.Contains(srv.MetricsText(), "triad_traces_sampled_total") {
		t.Fatal("triad_traces_sampled_total missing from /metrics")
	}
}

// TestTraceDisabled: with -trace-sample 0 the surfaces answer benignly.
func TestTraceDisabled(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	recent, err := c.TraceRecent(0)
	if err != nil || len(recent) != 0 {
		t.Fatalf("TRACE RECENT with tracing off = %v, %v", recent, err)
	}
	if _, found, err := c.TraceGet(1); err != nil || found {
		t.Fatalf("TRACE GET with tracing off = found=%v err=%v", found, err)
	}
	ts := httptest.NewServer(srv.MetricsHandler(false))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "0 traces sampled") {
		t.Fatalf("/debug/trace with tracing off: %q", body)
	}
}

// promSeries parses one exposition dump into name{labels} -> value for
// simple (non-histogram) series.
func promSeries(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsLedgerConsistency: after quiescing, the per-shard
// triad_io_bytes_total series must sum exactly to the store-wide byte
// counters WA is computed from, and the per-level series to the disk,
// compaction and lookup-read totals.
func TestMetricsLedgerConsistency(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)

	val := []byte(strings.Repeat("v", 512))
	for i := 0; i < 400; i++ {
		if err := c.Set([]byte(fmt.Sprintf("ledger-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// Lookups of present and absent keys, so that the tables probe, read
	// and turn keys away.
	for i := 0; i < 400; i += 7 {
		if _, found, err := c.Get([]byte(fmt.Sprintf("ledger-%04d", i))); err != nil || !found {
			t.Fatalf("Get(ledger-%04d) = %v, %v", i, found, err)
		}
		if _, found, err := c.Get([]byte(fmt.Sprintf("ledger-%04d-absent", i))); err != nil || found {
			t.Fatalf("Get(ledger-%04d-absent) = %v, %v", i, found, err)
		}
	}
	m := db.Metrics()
	if io := db.IOBySource(); io[obs.SrcUser] == 0 || io[obs.SrcWAL] == 0 || io[obs.SrcFlush] == 0 {
		t.Fatalf("attribution recorded nothing: %v", io)
	}

	series := promSeries(t, srv.MetricsText())
	sumSrc := func(src string) (total float64) {
		for name, v := range series {
			if strings.HasPrefix(name, "triad_io_bytes_total{") && strings.Contains(name, `source="`+src+`"`) {
				total += v
			}
		}
		return total
	}
	for _, check := range []struct {
		src, counter string
	}{
		{"user_write", "triad_user_bytes_total"},
		{"wal", "triad_bytes_logged_total"},
		{"flush", "triad_bytes_flushed_total"},
		{"fold", "triad_bytes_folded_total"},
		{"compaction_write", "triad_bytes_compacted_total"},
	} {
		if got, want := sumSrc(check.src), series[check.counter]; got != want {
			t.Fatalf("sum(triad_io_bytes_total{source=%q}) = %g, want %s = %g",
				check.src, got, check.counter, want)
		}
	}

	if got := series["triad_folds_total"]; got != float64(m.Folds) {
		t.Fatalf("triad_folds_total = %g, engine folded %d times", got, m.Folds)
	}
	if got := series["triad_bytes_relogged_total"]; got != float64(m.BytesRelogged) || m.BytesRelogged >= m.BytesLogged {
		t.Fatalf("triad_bytes_relogged_total = %g, engine re-logged %d of %d B logged", got, m.BytesRelogged, m.BytesLogged)
	}

	// The per-level series decompose the same totals by level: bytes
	// held sum to the shards' disk bytes, bytes compacted out of each
	// level to the compaction counter, and every level below L0 carries
	// the target the picker holds it to.
	sumPrefix := func(prefix string) (total float64) {
		for name, v := range series {
			if strings.HasPrefix(name, prefix) {
				total += v
			}
		}
		return total
	}
	if got, want := sumPrefix("triad_level_bytes{"), sumPrefix("triad_shard_disk_bytes{"); got != want || got == 0 {
		t.Fatalf("sum(triad_level_bytes) = %g, want sum(triad_shard_disk_bytes) = %g, non-zero", got, want)
	}
	if got, want := sumPrefix("triad_level_compacted_bytes_total{"), series["triad_bytes_compacted_total"]; got != want {
		t.Fatalf("sum(triad_level_compacted_bytes_total) = %g, want triad_bytes_compacted_total = %g", got, want)
	}
	// Every L0 merge is counted once, at the level it wrote; where L0 can
	// fold, each is also counted by the rule that merged it.
	if got, want := sumPrefix("triad_level_l0_merges_total{"), float64(m.MergesRentPaid+m.MergesLogCeiling+m.MergesDrain); got != want || got == 0 {
		t.Fatalf("sum(triad_level_l0_merges_total) = %g, want the %g L0 merges by rule, non-zero", got, want)
	}
	if series[`triad_level_target_bytes{shard="0",level="1"}`] == 0 || series[`triad_level_target_bytes{shard="1",level="2"}`] == 0 {
		t.Fatalf("per-level targets missing from /metrics")
	}
	// The lookups' disk reads, by level and source, sum to the engine's
	// total, the numerator of read amplification.
	if got, want := sumPrefix("triad_get_reads_total{"), float64(m.TableDiskReads); got != want || got == 0 {
		t.Fatalf("sum(triad_get_reads_total) = %g, want the engine's %g table reads, non-zero", got, want)
	}
	if probes, negatives := sumPrefix("triad_get_probes_total{"), sumPrefix("triad_get_filter_negatives_total{"); negatives == 0 || probes <= negatives {
		t.Fatalf("lookups probed %g tables, %g of them turned away by a filter; want some of each", probes, negatives)
	}

	// And STATS carries the human-readable decomposition and the tree.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "L0 merges by output level: L1 ") {
		t.Fatalf("STATS missing the L0 merges by output level:\n%s", stats)
	}
	if !strings.Contains(stats, "WA decomposition") {
		t.Fatalf("STATS missing the WA decomposition:\n%s", stats)
	}
	if !strings.Contains(stats, "target ") || !strings.Contains(stats, "score ") {
		t.Fatalf("STATS levels carry no target/score:\n%s", stats)
	}
	if !strings.Contains(stats, " probes, ") || !strings.Contains(stats, " filter negatives, ") {
		t.Fatalf("STATS has no per-level lookup line:\n%s", stats)
	}
}

// TestMetricsTotalsAgreeUnderLoad: while writers run, every scrape's
// store-wide series equal the sums of its per-shard series, and every
// STATS's user bytes the sum of its per-shard rows: each rendering reads
// each shard once and derives its totals from that read.
func TestMetricsTotalsAgreeUnderLoad(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)

	stop := make(chan struct{})
	errs := make(chan error, 2)
	val := []byte(strings.Repeat("v", 200))
	for w := 0; w < 2; w++ {
		wc := dial(t, addr)
		go func() {
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				key := func(j int) []byte { return []byte(fmt.Sprintf("agree-%03d", (i*7+j)%500)) }
				var err error
				if i%2 == 0 {
					err = wc.Set(key(0), val)
				} else {
					pairs := make([][]byte, 0, 20)
					for j := 0; j < 10; j++ {
						pairs = append(pairs, key(j), val)
					}
					err = wc.MSet(pairs...)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	writes := func() float64 { return promSeries(t, srv.MetricsText())["triad_user_writes_total"] }
	for deadline := time.Now().Add(10 * time.Second); writes() < 1000; {
		if time.Now().After(deadline) {
			t.Fatal("writers made no progress")
		}
		time.Sleep(time.Millisecond)
	}

	sum := func(series map[string]float64, prefix, label string) (total float64) {
		for name, v := range series {
			if strings.HasPrefix(name, prefix+"{") && strings.Contains(name, label) {
				total += v
			}
		}
		return total
	}
	checks := []struct{ total, rows, label string }{
		{"triad_user_writes_total", "triad_shard_writes_total", ""},
		{"triad_compaction_backlog_bytes", "triad_shard_compaction_backlog_bytes", ""},
		{"triad_kept_versions", "triad_shard_kept_versions", ""},
		{"triad_bytes_logged_total", "triad_io_bytes_total", `source="wal"`},
		{"triad_bytes_flushed_total", "triad_io_bytes_total", `source="flush"`},
		{"triad_bytes_folded_total", "triad_io_bytes_total", `source="fold"`},
		{"triad_bytes_compacted_total", "triad_io_bytes_total", `source="compaction_write"`},
	}
	userBytes := regexp.MustCompile(`(?m)^bytes: user (\d+) `)
	rowBytes := regexp.MustCompile(`(?m)^  s\d+: writes=\d+ \((\d+) B\)`)

	const rounds = 25
	var badScrapes, badStats, keptSeen int
	var firstBad string
	var cursor string
	first := writes()
	for round := 0; round < rounds; round++ {
		// A fresh snapshot each round, so overwrites keep versions for it.
		if cursor != "" {
			if err := c.ScanClose(cursor); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if cursor, _, _, err = c.ScanOpen(nil, nil, 1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)

		series := promSeries(t, srv.MetricsText())
		var diffs []string
		for _, ck := range checks {
			if got, want := sum(series, ck.rows, ck.label), series[ck.total]; got != want {
				diffs = append(diffs, fmt.Sprintf("sum(%s{%s}) = %g, %s = %g", ck.rows, ck.label, got, ck.total, want))
			}
		}
		if series["triad_kept_versions"] > 0 {
			keptSeen++
		}
		if len(diffs) > 0 {
			badScrapes++
			if firstBad == "" {
				firstBad = strings.Join(diffs, "; ")
			}
		}

		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		m := userBytes.FindStringSubmatch(stats)
		rows := rowBytes.FindAllStringSubmatch(stats, -1)
		if m == nil || len(rows) != 2 {
			t.Fatalf("STATS has no user bytes or not two shard rows:\n%s", stats)
		}
		var rowSum int64
		for _, r := range rows {
			n, _ := strconv.ParseInt(r[1], 10, 64)
			rowSum += n
		}
		if total, _ := strconv.ParseInt(m[1], 10, 64); total != rowSum {
			badStats++
			if firstBad == "" {
				firstBad = fmt.Sprintf("STATS: bytes: user %d, shard rows sum to %d B", total, rowSum)
			}
		}
	}
	last := writes()
	close(stop)
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ScanClose(cursor); err != nil {
		t.Fatal(err)
	}
	if badScrapes > 0 || badStats > 0 {
		t.Fatalf("%d of %d scrapes and %d of %d STATS disagree with their per-shard rows; first: %s",
			badScrapes, rounds, badStats, rounds, firstBad)
	}
	if last <= first || keptSeen == 0 {
		t.Fatalf("writes went %g -> %g over the scrapes and %d scrapes saw kept versions: the store was not under load", first, last, keptSeen)
	}
}
