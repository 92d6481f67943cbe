package server_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/lsm"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
)

func fillStore(t *testing.T, c *client.Conn, n int) {
	t.Helper()
	for i := 0; i < n; i += 100 {
		pairs := make([][]byte, 0, 200)
		for j := i; j < i+100 && j < n; j++ {
			pairs = append(pairs, []byte(fmt.Sprintf("key-%05d", j)), []byte(fmt.Sprintf("val-%d", j)))
		}
		if err := c.MSet(pairs...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanCursorPaging: SCAN returns a cursor, SCAN CONT resumes it
// page by page in order with no gaps or duplicates, and the final page
// carries the done sentinel.
func TestScanCursorPaging(t *testing.T) {
	db := newTestStore(t, 4)
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	const n = 1000
	fillStore(t, c, n)

	cursor, keys, vals, err := c.ScanOpen(nil, nil, 128)
	if err != nil {
		t.Fatal(err)
	}
	if cursor == client.DoneCursor {
		t.Fatal("scan of 1000 keys finished in one 128-entry page")
	}
	if open, _ := srv.CursorStats(); open != 1 {
		t.Fatalf("CursorStats open = %d, want 1", open)
	}
	pages := 1
	for cursor != client.DoneCursor {
		var ks, vs [][]byte
		cursor, ks, vs, err = c.ScanCont(cursor, 128)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ks...)
		vals = append(vals, vs...)
		pages++
	}
	if len(keys) != n {
		t.Fatalf("paged scan saw %d keys, want %d", len(keys), n)
	}
	if pages < 3 {
		t.Fatalf("scan took %d pages — paging not exercised", pages)
	}
	for i, k := range keys {
		if string(k) != fmt.Sprintf("key-%05d", i) || string(vals[i]) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("entry %d = (%q, %q)", i, k, vals[i])
		}
	}
	if open, _ := srv.CursorStats(); open != 0 {
		t.Fatalf("CursorStats open = %d after exhaustion, want 0", open)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("store snapshots still open: %d", db.OpenSnapshots())
	}
}

// TestScanIteratorFailureReleasesSnapshot: a SCAN whose iterator fails to
// open — here a read of the commit log a flushed CL-SSTable points into —
// replies with the error and releases the snapshot it pinned for the scan.
func TestScanIteratorFailureReleasesSnapshot(t *testing.T) {
	var fss []*vfs.MemFS
	opts := lsm.TriadOptions(nil)
	opts.MemtableBytes = 256 << 10
	opts.CommitLogBytes = 1 << 20
	db, err := shard.Open(shard.Options{Shards: 2, Engine: opts, NewFS: func(int) (vfs.FS, error) {
		fs := vfs.NewMemFS()
		fss = append(fss, fs)
		return fs, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	fillStore(t, c, 300)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, fs := range fss {
		fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
			if op.Kind == vfs.OpReadAt {
				return vfs.ErrInjected
			}
			return nil
		}})
	}
	_, _, _, err = c.ScanOpen(nil, nil, 10)
	for _, fs := range fss {
		fs.SetHooks(vfs.Hooks{})
	}
	if err == nil || !strings.Contains(err.Error(), vfs.ErrInjected.Error()) {
		t.Fatalf("SCAN over failing reads = %v, want the injected fault", err)
	}
	if n := db.OpenSnapshots(); n != 0 {
		t.Fatalf("%d store snapshots open after the failed SCAN, want 0", n)
	}
	// The store still scans once its reads succeed.
	if _, keys, _, err := c.ScanOpen(nil, nil, 10); err != nil || len(keys) != 10 {
		t.Fatalf("SCAN after the fault: %d keys, %v", len(keys), err)
	}
}

// TestScanCursorRepeatableRead: pages served after writes still come
// from the cursor's pinned snapshot — overwrites, deletes and new keys
// are invisible until a new SCAN.
func TestScanCursorRepeatableRead(t *testing.T) {
	db := newTestStore(t, 4)
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	const n = 600
	fillStore(t, c, n)

	cursor, keys, _, err := c.ScanOpen(nil, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate everything through a second connection: overwrite all,
	// delete a slice the cursor has not reached, add keys past the end.
	w := dial(t, addr)
	for i := 0; i < n; i += 100 {
		pairs := make([][]byte, 0, 200)
		for j := i; j < i+100; j++ {
			pairs = append(pairs, []byte(fmt.Sprintf("key-%05d", j)), []byte("overwritten"))
		}
		if err := w.MSet(pairs...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Del([]byte("key-00300"), []byte("key-00301")); err != nil {
		t.Fatal(err)
	}
	if err := w.Set([]byte("key-99999"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := w.FlushStore(); err != nil { // push the new state through a flush too
		t.Fatal(err)
	}

	var vals [][]byte
	for cursor != client.DoneCursor {
		var ks, vs [][]byte
		cursor, ks, vs, err = c.ScanCont(cursor, 100)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ks...)
		vals = append(vals, vs...)
	}
	if len(keys) != n {
		t.Fatalf("cursor saw %d keys, want %d (pinned view must include deleted keys, exclude new ones)", len(keys), n)
	}
	for i, v := range vals {
		if string(v) == "overwritten" {
			t.Fatalf("cursor page leaked a post-snapshot write at %q", keys[len(keys)-len(vals)+i])
		}
	}
	// A fresh scan sees the new world.
	ks, vs, err := c.ScanAll(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != n-2+1 {
		t.Fatalf("fresh scan saw %d keys, want %d", len(ks), n-2+1)
	}
	for i, v := range vs {
		if string(ks[i]) != "key-99999" && string(v) != "overwritten" {
			t.Fatalf("fresh scan: %q = %q, want overwritten", ks[i], v)
		}
	}
}

// TestScanCursorLimits: the per-connection cap errors further SCANs,
// SCAN CLOSE frees a slot, unknown and cross-connection cursors are
// rejected, and cursors die with their connection.
func TestScanCursorLimits(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{MaxCursorsPerConn: 2})
	c := dial(t, addr)
	fillStore(t, c, 500)

	open := func() string {
		t.Helper()
		cursor, _, _, err := c.ScanOpen(nil, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		if cursor == client.DoneCursor {
			t.Fatal("cursor finished prematurely")
		}
		return cursor
	}
	c1, c2 := open(), open()
	if _, _, _, err := c.ScanOpen(nil, nil, 10); err == nil || !strings.Contains(err.Error(), "too many open cursors") {
		t.Fatalf("third cursor: err = %v, want per-connection cap error", err)
	}
	if err := c.ScanClose(c1); err != nil {
		t.Fatal(err)
	}
	c3 := open() // the freed slot is reusable

	// Unknown cursor and double close.
	if _, _, _, err := c.ScanCont("c999999", 10); err == nil || !strings.Contains(err.Error(), "unknown cursor") {
		t.Fatalf("unknown cursor: err = %v", err)
	}
	if err := c.ScanClose(c1); err == nil {
		t.Fatal("double close succeeded")
	}

	// Another connection cannot touch this connection's cursors.
	other := dial(t, addr)
	if _, _, _, err := other.ScanCont(c2, 10); err == nil || !strings.Contains(err.Error(), "unknown cursor") {
		t.Fatalf("cross-connection CONT: err = %v", err)
	}

	// Cursors die with the connection.
	if open, _ := srv.CursorStats(); open != 2 {
		t.Fatalf("CursorStats open = %d, want 2", open)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if open, _ := srv.CursorStats(); open == 0 {
			break
		}
		if time.Now().After(deadline) {
			open, _ := srv.CursorStats()
			t.Fatalf("connection death left %d cursors open", open)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("store snapshots still open: %d", db.OpenSnapshots())
	}
	_ = c2
	_ = c3
}

// TestScanCursorIdleTTL: an abandoned cursor is closed by its idle
// timer and subsequent CONTs read as unknown.
func TestScanCursorIdleTTL(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{CursorTTL: 50 * time.Millisecond})
	c := dial(t, addr)
	fillStore(t, c, 300)

	cursor, _, _, err := c.ScanOpen(nil, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cursor == client.DoneCursor {
		t.Fatal("cursor finished prematurely")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if open, _ := srv.CursorStats(); open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle cursor not closed by its TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, _, err := c.ScanCont(cursor, 10); err == nil || !strings.Contains(err.Error(), "unknown cursor") {
		t.Fatalf("CONT after TTL: err = %v, want unknown cursor", err)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("store snapshots still open after TTL reap: %d", db.OpenSnapshots())
	}
}

// TestScanCursorTTLCountsFromLastUse: a cursor's idle TTL restarts with
// every page, so a cursor paged more often than its TTL outlives several
// TTLs; once left idle it is closed, its snapshot released and, under a
// one-cursor cap, its slot free for a new SCAN.
func TestScanCursorTTLCountsFromLastUse(t *testing.T) {
	const ttl = 500 * time.Millisecond
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{CursorTTL: ttl, MaxCursorsPerConn: 1})
	c := dial(t, addr)
	fillStore(t, c, 1000)

	cursor, _, _, err := c.ScanOpen(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ScanOpen(nil, nil, 1); err == nil || !strings.Contains(err.Error(), "too many open cursors") {
		t.Fatalf("second cursor under a cap of 1: err = %v, want the cap error", err)
	}
	// Page every ttl/20 for four TTLs: each page must find the cursor.
	for end := time.Now().Add(4 * ttl); time.Now().Before(end); {
		time.Sleep(ttl / 20)
		if cursor, _, _, err = c.ScanCont(cursor, 1); err != nil {
			t.Fatalf("cursor paged every %v closed under a %v TTL: %v", ttl/20, ttl, err)
		}
		if cursor == client.DoneCursor {
			t.Fatal("cursor finished prematurely")
		}
	}
	deadline := time.Now().Add(10 * ttl)
	for {
		if open, _ := srv.CursorStats(); open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle cursor not closed by its TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := db.OpenSnapshots(); n != 0 {
		t.Fatalf("%d store snapshots open after the idle close, want 0", n)
	}
	if _, _, _, err := c.ScanOpen(nil, nil, 1); err != nil {
		t.Fatalf("SCAN after the idle close: %v, want the freed slot", err)
	}
}

// TestScanCursorIdleCloseRacesPages: under a TTL short enough that idle
// timers fire while pages are read, every page either continues the scan
// in order or reads as an unknown cursor — a cursor is never closed under
// a page, which would end it early with the done sentinel — and no
// snapshot outlives the cursors.
func TestScanCursorIdleCloseRacesPages(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{CursorTTL: time.Millisecond})
	c := dial(t, addr)
	const n = 50
	fillStore(t, c, n)
	for range 40 {
		cursor, keys, _, err := c.ScanOpen(nil, nil, 1)
		for err == nil && cursor != client.DoneCursor {
			var ks [][]byte
			cursor, ks, _, err = c.ScanCont(cursor, 1)
			keys = append(keys, ks...)
		}
		if err != nil && !strings.Contains(err.Error(), "unknown cursor") {
			t.Fatalf("page under a 1ms TTL: %v", err)
		}
		if err == nil && len(keys) != n {
			t.Fatalf("cursor done after %d of %d keys", len(keys), n)
		}
		for i, k := range keys {
			if string(k) != fmt.Sprintf("key-%05d", i) {
				t.Fatalf("page entry %d = %q", i, k)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if open, _ := srv.CursorStats(); open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle cursors not closed by their TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := db.OpenSnapshots(); n != 0 {
		t.Fatalf("%d store snapshots open after every cursor closed, want 0", n)
	}
}

// TestScanSubcommandDisambiguation: SCAN CONT/CLOSE only routes to the
// cursor machinery when the next token is cursor-shaped, so keys that
// happen to spell "cont"/"close" still scan; CONT with the done
// sentinel reads as an unknown cursor, not a scan.
func TestScanSubcommandDisambiguation(t *testing.T) {
	db := newTestStore(t, 2)
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	for _, k := range []string{"cont", "continent", "close", "closet"} {
		if err := c.Set([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Open scans whose start keys collide with the subcommand words.
	for start, want := range map[string]int{"cont": 2, "close": 4} {
		cursor, keys, _, err := c.ScanOpen([]byte(start), []byte("z"), 10)
		if err != nil {
			t.Fatalf("scan from %q: %v", start, err)
		}
		if cursor != client.DoneCursor || len(keys) != want {
			t.Fatalf("scan from %q: cursor=%q, %d keys, want %d", start, cursor, len(keys), want)
		}
	}
	// Continuing past exhaustion is an unknown cursor, not a scan.
	if _, _, _, err := c.ScanCont(client.DoneCursor, 10); err == nil || !strings.Contains(err.Error(), "unknown cursor") {
		t.Fatalf("CONT on done sentinel: err = %v", err)
	}
}

// TestStatsAndMetricsReportCursors: STATS and /metrics carry the
// snapshot and cursor gauges.
func TestStatsAndMetricsReportCursors(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	fillStore(t, c, 300)
	cursor, _, _, err := c.ScanOpen(nil, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "1 cursors open") {
		t.Fatalf("STATS missing cursor line:\n%s", stats)
	}
	// Snapshot hygiene is printed once, by the store: every store snapshot
	// pins every shard once, so the per-shard rows carry no copy of it. The
	// open cursor's snapshot is counted there.
	if n := strings.Count(stats, "leaked"); n != 1 || !strings.Contains(stats, "snapshots: 1 open, 0 leaked") {
		t.Fatalf("STATS prints snapshot hygiene %d times, want once with the cursor's snapshot open:\n%s", n, stats)
	}
	text := srv.MetricsText()
	for _, want := range []string{"triad_server_cursors_open 1", "triad_snapshots_open 1", "triad_server_cursors_total 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if err := c.ScanClose(cursor); err != nil {
		t.Fatal(err)
	}
}
