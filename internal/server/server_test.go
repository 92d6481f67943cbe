package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/leakcheck"
	"repro/internal/lsm"
	"repro/internal/resp"
	"repro/internal/server"
	"repro/internal/shard"
)

// newTestStore opens an in-memory sharded store sized for tests. Its
// cleanup closes it and then checks that no file handle is left open on
// any shard's filesystem.
func newTestStore(t *testing.T, shards int) *shard.DB {
	t.Helper()
	opts := lsm.TriadOptions(nil)
	opts.MemtableBytes = 256 << 10
	opts.CommitLogBytes = 1 << 20
	newFS, checkClosed := leakcheck.ShardMemFS(t, shards)
	db, err := shard.Open(shard.Options{Shards: shards, Engine: opts, NewFS: newFS})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		db.Close()
		checkClosed()
	})
	return db
}

// checkReleased fails t if db has a snapshot, an iterator or an epoch
// ticket outstanding. The ticket check takes a snapshot: it draws the next
// epoch once every shard's commit lock is free, so with no ticket
// outstanding it returns at once and the watermark reaches its epoch.
func checkReleased(t *testing.T, db *shard.DB) {
	t.Helper()
	if n := db.OpenSnapshots(); n != 0 {
		t.Errorf("%d store snapshots still open", n)
	}
	for i := 0; i < db.NumShards(); i++ {
		if n := db.Shard(i).OpenSnapshots(); n != 0 {
			t.Errorf("shard %d: %d snapshots (or iterators) still open", i, n)
		}
	}
	probe := make(chan *shard.Snapshot, 1)
	go func() {
		s, err := db.NewSnapshot()
		if err != nil {
			t.Errorf("snapshot after shutdown: %v", err)
		}
		probe <- s
	}()
	select {
	case s := <-probe:
		if s == nil {
			return
		}
		s.Close()
		if w := db.CommittedEpoch(); w != s.Epoch() {
			t.Errorf("watermark at %d behind epoch %d: a ticket was never committed or aborted", w, s.Epoch())
		}
	case <-time.After(5 * time.Second):
		t.Errorf("a snapshot waited 5 s for the commit locks: a ticket was never committed or aborted")
	}
}

// startServer serves db on a random port and tears everything down with
// the test: once the server has shut down, it checks that nothing the
// server opened on db is left (checkReleased) and closes db.
func startServer(t *testing.T, db *shard.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	return serveStore(t, db, db, cfg)
}

// serveStore is startServer over any view of db (store); db is what the
// teardown closes.
func serveStore(t *testing.T, store server.Store, db *shard.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(store, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		checkReleased(t, db)
		if err := db.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// gatedStore holds every Prepare until open is closed. While it is
// shut, the group committer cannot seal a group, so whatever the
// connections send meanwhile piles into the open group and nothing
// reaches the store — group commit and the read-your-writes barrier
// become observable without a timing window.
type gatedStore struct {
	*shard.DB
	held chan struct{} // a token when a Prepare reaches the shut gate
	open chan struct{} // closed to let every Prepare through
}

func newGatedStore(db *shard.DB) *gatedStore {
	return &gatedStore{DB: db, held: make(chan struct{}, 1), open: make(chan struct{})}
}

func (s *gatedStore) Prepare(b *lsm.Batch) (*shard.Commit, error) {
	select {
	case s.held <- struct{}{}:
	default:
	}
	<-s.open
	return s.DB.Prepare(b)
}

// waitCommands blocks until the server has read n commands. A command is
// counted before it is dispatched, so the count reaching n means every
// command before the n-th has been executed (a write: enqueued).
func waitCommands(t *testing.T, srv *server.Server, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if _, _, cmds := srv.ConnStats(); cmds >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never read %d commands", n)
		}
	}
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCommands exercises every command's happy path and reply shape
// through one connection.
func TestCommands(t *testing.T) {
	db := newTestStore(t, 4)
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get([]byte("alpha"))
	if err != nil || !found || string(v) != "1" {
		t.Fatalf("Get alpha = %q, %v, %v", v, found, err)
	}
	if _, found, err = c.Get([]byte("missing")); err != nil || found {
		t.Fatalf("Get missing = found=%v err=%v", found, err)
	}
	if err := c.MSet([]byte("beta"), []byte("2"), []byte("gamma"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	got, err := c.MGet([]byte("alpha"), []byte("nope"), []byte("gamma"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "1" || got[1] != nil || string(got[2]) != "3" {
		t.Fatalf("MGet = %q", got)
	}
	n, err := c.Del([]byte("alpha"), []byte("nope"))
	if err != nil || n != 2 {
		t.Fatalf("Del = %d, %v", n, err)
	}
	if _, found, _ = c.Get([]byte("alpha")); found {
		t.Fatal("alpha survived DEL")
	}
	keys, vals, err := c.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || string(keys[0]) != "beta" || string(keys[1]) != "gamma" ||
		string(vals[0]) != "2" || string(vals[1]) != "3" {
		t.Fatalf("Scan = %q / %q", keys, vals)
	}
	// Bounded scan with a count.
	keys, _, err = c.Scan([]byte("beta"), nil, 1)
	if err != nil || len(keys) != 1 || string(keys[0]) != "beta" {
		t.Fatalf("bounded Scan = %q, %v", keys, err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "shards: 4") || !strings.Contains(stats, "per-shard balance") {
		t.Fatalf("STATS missing shard table:\n%s", stats)
	}
	if err := c.FlushStore(); err != nil {
		t.Fatal(err)
	}
	// Empty values round-trip as empty (not null).
	if err := c.Set([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	v, found, err = c.Get([]byte("empty"))
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("empty value = %q, %v, %v", v, found, err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommandErrors checks arity and validation error replies, and that
// the connection survives them.
func TestCommandErrors(t *testing.T) {
	db := newTestStore(t, 2)
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)

	for _, cmdline := range [][]string{
		{"GET"},
		{"GET", "a", "b"},
		{"SET", "only-key"},
		{"MSET", "odd", "1", "dangling"},
		{"DEL"},
		{"SET", "", "empty-key"},
		{"SCAN", "a", "z", "not-a-number"},
		{"NOSUCHCMD", "x"},
	} {
		args := make([][]byte, len(cmdline)-1)
		for i, a := range cmdline[1:] {
			args[i] = []byte(a)
		}
		if _, err := c.Do(cmdline[0], args...); err == nil {
			t.Errorf("%v: expected error reply", cmdline)
		} else if _, ok := err.(client.ServerError); !ok {
			t.Errorf("%v: expected ServerError, got %v", cmdline, err)
		}
	}
	// The connection is still healthy after every error reply.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unhealthy after error replies: %v", err)
	}
}

// TestLowerCaseAndInline: commands are case-insensitive and the inline
// framing works end to end.
func TestLowerCaseAndInline(t *testing.T) {
	db := newTestStore(t, 1)
	_, addr := startServer(t, db, server.Config{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, "set inline-key inline-val\r\nget inline-key\r\n"); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(nc)
	ok, err := r.ReadReply()
	if err != nil || ok.Text() != "OK" {
		t.Fatalf("inline set: %v %v", ok, err)
	}
	got, err := r.ReadReply()
	if err != nil || got.Text() != "inline-val" {
		t.Fatalf("inline get: %v %v", got, err)
	}
}

// TestPipelining sends a deep pipeline before reading anything and
// checks every reply arrives in request order.
func TestPipelining(t *testing.T) {
	db := newTestStore(t, 4)
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)

	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if err := c.Send("SET", key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Send("GET", key); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ok, err := c.Receive()
		if err != nil || ok.Text() != "OK" {
			t.Fatalf("reply %d (SET): %v %v", i, ok, err)
		}
		got, err := c.Receive()
		if err != nil {
			t.Fatalf("reply %d (GET): %v", i, err)
		}
		if want := fmt.Sprintf("val-%d", i); got.Text() != want {
			t.Fatalf("pipelined GET %d = %q, want %q", i, got.Text(), want)
		}
	}
}

// TestReadYourWrites: a GET pipelined right behind a SET on the same
// connection is read while the SET's group is held before commit — the
// value is not in the store yet — and must still return it: the
// connection barrier waits for the group's epoch to commit.
func TestReadYourWrites(t *testing.T) {
	db := newTestStore(t, 2)
	gs := newGatedStore(db)
	srv, addr := serveStore(t, gs, db, server.Config{})
	c := dial(t, addr)

	if err := c.Send("SET", []byte("ryw"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("GET", []byte("ryw")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	<-gs.held               // the SET's group is sealing, held at Prepare
	waitCommands(t, srv, 2) // the GET has been read and dispatched
	if _, err := db.Get([]byte("ryw")); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("store holds the write before its group committed: %v", err)
	}
	close(gs.open)
	if ok, err := c.Receive(); err != nil || ok.Text() != "OK" {
		t.Fatalf("SET: %v %v", ok, err)
	}
	if v, err := c.Receive(); err != nil || v.Text() != "v1" {
		t.Fatalf("read-your-writes: GET = %v, %v", v, err)
	}
	batches, ops := srv.GroupCommitStats()
	if batches != 1 || ops != 1 {
		t.Fatalf("group commits: batches=%d ops=%d, want 1 and 1", batches, ops)
	}
}

// TestGroupCommitCoalesces: a pipelined burst that arrives while a group
// is committing lands in one group — n writes, two batches.
func TestGroupCommitCoalesces(t *testing.T) {
	db := newTestStore(t, 4)
	gs := newGatedStore(db)
	srv, addr := serveStore(t, gs, db, server.Config{})
	c := dial(t, addr)

	const n = 400
	set := func(i int) {
		if err := c.Send("SET", []byte(fmt.Sprintf("burst-%04d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	set(0)
	<-gs.held // the first write's group is committing
	for i := 1; i < n; i++ {
		set(i)
	}
	if err := c.Send("PING"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitCommands(t, srv, n+1) // the burst is enqueued, behind the held group
	close(gs.open)
	for i := 0; i <= n; i++ {
		if _, err := c.Receive(); err != nil {
			t.Fatal(err)
		}
	}
	batches, ops := srv.GroupCommitStats()
	if ops != n || batches != 2 {
		t.Fatalf("%d ops in %d batches, want %d in 2: the burst did not coalesce", ops, batches, n)
	}
}

// TestConcurrentConnections drives mixed traffic from many connections
// under the race detector and verifies every write landed.
func TestConcurrentConnections(t *testing.T) {
	db := newTestStore(t, 4)
	_, addr := startServer(t, db, server.Config{})

	const conns, opsPer = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < opsPer; i++ {
				key := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if err := c.Set(key, []byte(fmt.Sprintf("%d", i))); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if _, _, err := c.Get(key); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c := dial(t, addr)
	for w := 0; w < conns; w++ {
		for _, i := range []int{0, opsPer / 2, opsPer - 1} {
			key := []byte(fmt.Sprintf("w%d-%04d", w, i))
			v, found, err := c.Get(key)
			if err != nil || !found || string(v) != fmt.Sprintf("%d", i) {
				t.Fatalf("%s = %q, %v, %v", key, v, found, err)
			}
		}
	}
}

// TestGracefulShutdown: writes accepted but not yet committed when
// Shutdown starts are committed and answered before it returns; the
// store is intact afterwards.
func TestGracefulShutdown(t *testing.T) {
	db := newTestStore(t, 2)
	gs := newGatedStore(db)
	srv := server.New(gs, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Send("SET", []byte(fmt.Sprintf("shut-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send("PING"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	<-gs.held
	waitCommands(t, srv, n+1) // every write is accepted; none has committed
	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr <- srv.Shutdown(ctx)
	}()
	close(gs.open)
	if err := <-shutErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	for i := 0; i < n; i++ {
		if v, err := c.Receive(); err != nil || v.Text() != "OK" {
			t.Fatalf("reply %d: %v %v", i, v, err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("shut-%03d", i))); err != nil {
			t.Fatalf("write %d lost across shutdown: %v", i, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownIdempotent: double Shutdown and post-shutdown Serve are
// clean errors, not hangs.
func TestShutdownIdempotent(t *testing.T) {
	db := newTestStore(t, 1)
	defer db.Close()
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Serve after (or racing) Shutdown is a clean no-op stop: a signal
	// can land before the Serve goroutine registers the listener.
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
}

// TestScanAllWithSmallServerCap: a SCAN over more pairs than the
// server's page cap (4096) returns one full page and a live cursor,
// whether the client named no count or a larger one, and ScanAll pages
// on to the end of the range.
func TestScanAllWithSmallServerCap(t *testing.T) {
	db := newTestStore(t, 4)
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)

	const pageCap, n = 4096, 4200
	fillStore(t, c, n)
	for _, count := range []int{0, 2 * pageCap} {
		cursor, keys, _, err := c.ScanOpen(nil, nil, count)
		if err != nil {
			t.Fatal(err)
		}
		if cursor == client.DoneCursor || len(keys) != pageCap {
			t.Fatalf("count %d: cursor %q with %d keys, want a live cursor and %d keys", count, cursor, len(keys), pageCap)
		}
		if err := c.ScanClose(cursor); err != nil {
			t.Fatal(err)
		}
	}
	keys, _, err := c.ScanAll(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("ScanAll returned %d keys, want %d", len(keys), n)
	}
	for i, k := range keys {
		if want := fmt.Sprintf("key-%05d", i); string(k) != want {
			t.Fatalf("key %d = %q, want %q", i, k, want)
		}
	}
}

// TestHostileCommandName: an unknown command 200 bytes long, full of
// control bytes (CR and LF among them), earns one error line that
// echoes only the name's first 64 bytes, escaped; the next reply is
// still in sync.
func TestHostileCommandName(t *testing.T) {
	db := newTestStore(t, 1)
	_, addr := startServer(t, db, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	name := bytes.Repeat([]byte("Z\x00\r\n\x1b\xff"), 34)[:200]
	w := resp.NewWriter(nc)
	w.WriteCommand(name)
	w.WriteCommand([]byte("PING"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	want := "-ERR unknown command '" + strings.Repeat(`Z\x00\x0d\x0a\x1b\xff`, 10) + `Z\x00\x0d\x0a` + "'\r\n"
	if line != want {
		t.Fatalf("reply line\n got %q\nwant %q", line, want)
	}
	if pong, err := br.ReadString('\n'); err != nil || pong != "+PONG\r\n" {
		t.Fatalf("reply after the error = %q, %v; want +PONG", pong, err)
	}
}

// TestProtocolErrorGetsReplyThenClose: garbage framing earns an error
// reply and a hangup, and never kills the server.
func TestProtocolErrorGetsReplyThenClose(t *testing.T) {
	db := newTestStore(t, 1)
	_, addr := startServer(t, db, server.Config{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, "*2\r\n$3\r\nGET\r\n:bad\r\n"); err != nil {
		t.Fatal(err)
	}
	buf, err := io.ReadAll(nc) // server replies then closes
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte("-ERR protocol error")) {
		t.Fatalf("got %q, want protocol error reply", buf)
	}
	// The server is still alive for well-behaved clients.
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsHandler checks the plain-text dump carries engine counters,
// amplifications, the per-shard table and the server counters.
func TestMetricsHandler(t *testing.T) {
	db := newTestStore(t, 2)
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	for i := 0; i < 32; i++ {
		if err := c.Set([]byte(fmt.Sprintf("m-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get([]byte("m-00")); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.MetricsHandler(false))
	defer ts.Close()
	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"triad_user_writes_total 32",
		"triad_write_amplification",
		"triad_read_amplification",
		"triad_shard_writes_total{shard=\"0\"}",
		"triad_shard_writes_total{shard=\"1\"}",
		"triad_server_connections_open",
		"triad_server_commands_total",
		"triad_server_group_commit_batches_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("dump:\n%s", text)
	}

	res, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), "per-shard balance") {
		t.Errorf("/stats missing balance table:\n%s", body)
	}
}
