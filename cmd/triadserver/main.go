// Command triadserver exposes a TRIAD store over a RESP2-compatible
// wire protocol, with per-connection pipelining and cross-connection
// group commit (see internal/server).
//
// Usage:
//
//	triadserver -addr :6379                          # ephemeral in-memory store
//	triadserver -addr :6379 -dir /var/lib/triad      # durable store
//	triadserver -addr :6379 -dir d -shards 4         # hash-sharded under d/shard-NNN
//	triadserver -addr :6379 -metrics 127.0.0.1:9379  # plain-text /metrics dump
//
// Commands: GET, SET, DEL, MGET, MSET, SCAN, EVENTS, SLOWLOG, TRACE,
// STATS, FLUSH, PING, QUIT.
// Any RESP2 client works, redis-cli included:
//
//	redis-cli -p 6379 SET user:1 alice
//	redis-cli -p 6379 GET user:1
//
// Group commit coalesces writes from all connections into shard-split
// batches: each group is what arrived while the previous ones committed.
//
// SIGINT/SIGTERM drain gracefully: stop accepting, finish in-flight
// pipelines (committing their writes), flush memtables, close the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	triad "repro"
	"repro/internal/server"
	"repro/internal/vfs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main, factored for the smoke test: ready (when non-nil) is
// called with the bound RESP address once the server is accepting.
func run(args []string, stdout, stderr io.Writer, ready func(addr string)) int {
	fs := flag.NewFlagSet("triadserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":6379", "TCP listen address for the RESP protocol")
		dir         = fs.String("dir", "", "database directory (empty: ephemeral in-memory store)")
		baseline    = fs.Bool("baseline", false, "use the RocksDB-like baseline profile instead of TRIAD")
		shards      = fs.Int("shards", 1, "hash-partition the keyspace across N engine instances (DIR/shard-NNN when durable)")
		cacheBytes  = fs.Int64("cache-bytes", 0, "store-wide block-cache budget in bytes, shared by all shards (0: no block cache)")
		syncWAL     = fs.Bool("sync", false, "fsync the commit log on every group commit")
		metricsAddr = fs.String("metrics", "", "HTTP listen address for the Prometheus /metrics and /stats dump (empty: disabled)")
		enablePprof = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof on the -metrics listener (off by default: profiling endpoints let any client with HTTP access run CPU/heap captures, so bind -metrics to localhost when enabling)")
		slowlogThr  = fs.Duration("slowlog-threshold", 10*time.Millisecond, "record commands slower than this in SLOWLOG")
		traceSample = fs.Float64("trace-sample", 0, "sample this fraction of commands for end-to-end tracing (0: off, 1: every command); inspect with TRACE RECENT / TRACE GET / /debug/trace")
		cursorTTL   = fs.Duration("cursor-ttl", 60*time.Second, "close idle SCAN cursors (and release their pinned snapshots) after this long")
		maxCursors  = fs.Int("max-cursors", 16, "cap on open SCAN cursors per connection")
		bgWorkers   = fs.Int("bg-workers", 0, "background flush/compaction worker pool size shared by all shards; each task is one flush or one whole compaction (0: min(GOMAXPROCS, shards+2), floor 2)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shards < 1 {
		fmt.Fprintf(stderr, "triadserver: -shards %d: want a positive shard count\n", *shards)
		fs.Usage()
		return 2
	}
	if *cacheBytes < 0 {
		fmt.Fprintf(stderr, "triadserver: -cache-bytes %d: want 0 (no block cache) or a positive byte count\n", *cacheBytes)
		fs.Usage()
		return 2
	}
	if *bgWorkers < 0 {
		fmt.Fprintf(stderr, "triadserver: -bg-workers %d: want 0 (default size) or a positive worker count\n", *bgWorkers)
		fs.Usage()
		return 2
	}
	if *slowlogThr < 0 {
		fmt.Fprintf(stderr, "triadserver: -slowlog-threshold %v: want a non-negative duration\n", *slowlogThr)
		fs.Usage()
		return 2
	}
	if *traceSample < 0 || *traceSample > 1 {
		fmt.Fprintf(stderr, "triadserver: -trace-sample %v: want a fraction from 0 (off) to 1 (every command)\n", *traceSample)
		fs.Usage()
		return 2
	}
	if *cursorTTL <= 0 {
		fmt.Fprintf(stderr, "triadserver: -cursor-ttl %v: want a positive duration\n", *cursorTTL)
		fs.Usage()
		return 2
	}
	if *maxCursors <= 0 {
		fmt.Fprintf(stderr, "triadserver: -max-cursors %d: want a positive cursor count\n", *maxCursors)
		fs.Usage()
		return 2
	}

	profile := triad.ProfileTriad
	if *baseline {
		profile = triad.ProfileBaseline
	}
	opts := triad.Options{Profile: profile, BlockCacheBytes: *cacheBytes, SyncWAL: *syncWAL, BackgroundWorkers: *bgWorkers}
	// One shard keeps its files at the root of -dir, the layout triaddb
	// writes too, so the two binaries can serve the same store.
	switch {
	case *shards > 1 && *dir == "":
		opts.Shards, opts.ShardFS = *shards, triad.ShardMemFS()
	case *shards > 1:
		opts.Shards, opts.ShardFS = *shards, triad.ShardDirs(*dir)
	case *dir == "":
		opts.FS = vfs.NewMemFS()
	default:
		osfs, err := vfs.NewOSFS(*dir)
		if err != nil {
			fmt.Fprintln(stderr, "triadserver:", err)
			return 1
		}
		opts.FS = osfs
	}
	db, err := triad.Open(opts)
	if err != nil {
		fmt.Fprintln(stderr, "triadserver:", err)
		return 1
	}

	srv := server.New(db, server.Config{
		CursorTTL:         *cursorTTL,
		MaxCursorsPerConn: *maxCursors,
		SlowlogThreshold:  *slowlogThr,
		TraceSample:       *traceSample,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "triadserver:", err)
		db.Close()
		return 1
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "triadserver: metrics:", err)
			ln.Close()
			db.Close()
			return 1
		}
		metricsSrv = &http.Server{Handler: srv.MetricsHandler(*enablePprof)}
		go metricsSrv.Serve(mln)
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", mln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "triadserver listening on %s (%d shard(s))\n", ln.Addr(), db.NumShards())
	if ready != nil {
		ready(ln.Addr().String())
	}

	exit := 0
	drain := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(stderr, "triadserver: drain:", err)
			exit = 1
		}
		cancel()
	}
	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(stderr, "triadserver:", err)
			exit = 1
		}
		// The listener is gone but connections and the group committer
		// may still be live; drain them before touching the store.
		drain()
	case <-ctx.Done():
		stop() // a second signal kills the process: the way out of a drain that hangs
		fmt.Fprintln(stdout, "triadserver: draining...")
		drain()
		if err := <-serveErr; err != nil {
			fmt.Fprintln(stderr, "triadserver:", err)
			exit = 1
		}
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	// Final flush + close: buffered memtables reach disk before exit.
	if err := db.Flush(); err != nil {
		fmt.Fprintln(stderr, "triadserver: final flush:", err)
		exit = 1
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(stderr, "triadserver: close:", err)
		exit = 1
	}
	batches, ops := srv.GroupCommitStats()
	_, conns, cmds := srv.ConnStats()
	fmt.Fprintf(stdout, "triadserver: served %d commands over %d connections (%d group commits, %d ops)\n",
		cmds, conns, batches, ops)
	return exit
}
