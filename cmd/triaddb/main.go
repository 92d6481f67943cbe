// Command triaddb is a minimal CLI over the public triad API, operating
// on a durable store in a directory.
//
// Usage:
//
//	triaddb -dir /tmp/db put <key> <value>
//	triaddb -dir /tmp/db get <key>
//	triaddb -dir /tmp/db del <key>
//	triaddb -dir /tmp/db scan [start [limit]]
//	triaddb -dir /tmp/db stats
//	triaddb -dir /tmp/db bench -n 100000
//
// Sharded stores: -shards N hash-partitions the keyspace across N engine
// instances under DIR/shard-NNN. The shard count is persisted in each
// shard's STORE record, so reopening with a different -shards fails with
// a descriptive error instead of silently misrouting keys.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	triad "repro"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/shutdown"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for the test: it returns the exit code (0 ok,
// 1 a store or I/O error, 2 a usage error).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fl := flag.NewFlagSet("triaddb", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		dir        = fl.String("dir", "triaddb-data", "database directory")
		baseline   = fl.Bool("baseline", false, "use the RocksDB-like baseline profile instead of TRIAD")
		shards     = fl.Int("shards", 1, "hash-partition the keyspace across N engine instances under DIR/shard-NNN (must match the count the store was created with)")
		cacheBytes = fl.Int64("cache-bytes", 0, "store-wide block-cache budget in bytes, shared by all shards (0: no block cache)")
		bgWorkers  = fl.Int("bg-workers", 0, "background flush/compaction worker pool size shared by all shards; each task is one flush or one whole compaction (0: min(GOMAXPROCS, shards+2), floor 2)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *bgWorkers < 0 {
		fmt.Fprintf(stderr, "triaddb: -bg-workers %d: want 0 (default size) or a positive worker count\n", *bgWorkers)
		fl.Usage()
		return 2
	}
	args = fl.Args()
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: triaddb [-dir DIR] [-baseline] [-shards N] put|get|del|scan|stats|bench ...")
		return 2
	}
	usage := func(u string) int {
		fmt.Fprintf(stderr, "usage: triaddb %s\n", u)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "triaddb:", err)
		return 1
	}

	profile := triad.ProfileTriad
	if *baseline {
		profile = triad.ProfileBaseline
	}
	opts := triad.Options{Profile: profile, BlockCacheBytes: *cacheBytes, BackgroundWorkers: *bgWorkers}
	if *shards > 1 {
		opts.Shards = *shards
		opts.ShardFS = triad.ShardDirs(*dir)
	} else {
		fs, err := vfs.NewOSFS(*dir)
		if err != nil {
			return fail(err)
		}
		opts.FS = fs
	}
	db, err := triad.Open(opts)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := db.Close(); err != nil && code == 0 {
			code = fail(err)
		}
	}()

	switch args[0] {
	case "put":
		if len(args) < 3 {
			return usage("put <key> <value>")
		}
		err = db.Put([]byte(args[1]), []byte(args[2]))
	case "get":
		if len(args) < 2 {
			return usage("get <key>")
		}
		var v []byte
		if v, err = db.Get([]byte(args[1])); err == nil {
			fmt.Fprintln(stdout, string(v))
		} else if errors.Is(err, triad.ErrNotFound) {
			fmt.Fprintln(stdout, "(not found)")
			err = nil
		}
	case "del":
		if len(args) < 2 {
			return usage("del <key>")
		}
		err = db.Delete([]byte(args[1]))
	case "scan":
		var start, limit []byte
		if len(args) > 1 {
			start = []byte(args[1])
		}
		if len(args) > 2 {
			limit = []byte(args[2])
		}
		var it triad.Iterator
		if it, err = db.NewIterator(start, limit); err == nil {
			for it.Next() {
				fmt.Fprintf(stdout, "%s = %s\n", it.Key(), it.Value())
			}
			err = it.Close()
		}
	case "stats":
		fmt.Fprint(stdout, db.Stats())
	case "bench":
		fsBench := flag.NewFlagSet("bench", flag.ContinueOnError)
		fsBench.SetOutput(stderr)
		n := fsBench.Int64("n", 100_000, "operations")
		keys := fsBench.Uint64("keys", 50_000, "key-space size")
		reads := fsBench.Float64("reads", 0.1, "read fraction")
		if fsBench.Parse(args[1:]) != nil {
			return 2
		}
		err = bench(db, workload.Mix{Dist: workload.HotCold{N: *keys, HotFraction: 0.01, HotAccess: 0.99}, ReadFraction: *reads}, *n, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "unknown command %q\n", args[0])
		return 2
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// bench runs n operations of mix against db and prints throughput and
// latency quantiles.
func bench(db *triad.DB, mix workload.Mix, n int64, stdout, stderr io.Writer) error {
	stream := mix.NewStream(1)
	// SIGINT/SIGTERM stop the loop instead of killing the process, so the
	// caller's Close flushes buffered work to disk.
	ctx, stop := shutdown.Notify()
	defer stop()
	getLat, putLat := obs.NewHist(), obs.NewHist()
	start := time.Now()
	done := int64(0)
	for ; done < n; done++ {
		if done%1024 == 0 && ctx.Err() != nil {
			fmt.Fprintln(stderr, "triaddb: interrupted, flushing")
			break
		}
		op := stream.Next()
		opStart := time.Now()
		if op.Read {
			if _, err := db.Get(op.Key); err != nil && !errors.Is(err, triad.ErrNotFound) {
				return err
			}
			getLat.Record(time.Since(opStart))
		} else {
			if err := db.Put(op.Key, op.Value); err != nil {
				return err
			}
			putLat.Record(time.Since(opStart))
		}
	}
	el := time.Since(start)
	fmt.Fprintf(stdout, "%d ops in %s = %.1f KOPS\n", done, el.Round(time.Millisecond), float64(done)/el.Seconds()/1000)
	printQuantiles(stdout, "get latency", getLat.Snapshot())
	printQuantiles(stdout, "put latency", putLat.Snapshot())
	printQuantiles(stdout, "apply latency", db.ApplyLatency().Snapshot())
	return nil
}

// printQuantiles renders one latency distribution as a quantile line;
// empty distributions print nothing.
func printQuantiles(w io.Writer, name string, h histogram.H) {
	if h.Count() == 0 {
		return
	}
	fmt.Fprintf(w, "%s: n=%d p50=%s p90=%s p99=%s p99.9=%s max=%s\n",
		name, h.Count(), h.Quantile(0.50), h.Quantile(0.90),
		h.Quantile(0.99), h.Quantile(0.999), h.Max())
}
