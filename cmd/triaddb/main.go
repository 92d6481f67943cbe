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
// Sharded stores: -shards N partitions the keyspace across N engine
// instances under DIR/shard-NNN. -partitioner range -splits g,n,t
// creates a range-partitioned store (scans stay shard-local); the
// partitioner and shard count are persisted in each shard's STORE
// record, so reopening with a different -shards or -partitioner fails
// with a descriptive error instead of silently misrouting keys. An
// existing store reopens with its stored partitioner when the flag is
// left empty.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	triad "repro"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/shutdown"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func main() {
	var (
		dir         = flag.String("dir", "triaddb-data", "database directory")
		baseline    = flag.Bool("baseline", false, "use the RocksDB-like baseline profile instead of TRIAD")
		shards      = flag.Int("shards", 1, "partition the keyspace across N engine instances under DIR/shard-NNN (must match the count the store was created with)")
		partitioner = flag.String("partitioner", "", "shard router: hash (default for new stores) or range; an existing store's stored partitioner is adopted when empty")
		splits      = flag.String("splits", "", "comma-separated ascending split keys for -partitioner range (N-1 keys for N shards), e.g. -splits g,n,t")
		cacheBytes  = flag.Int64("cache-bytes", 0, "store-wide block-cache budget in bytes, shared by all shards (0: the profile default)")
		bgWorkers   = flag.Int("bg-workers", 0, "background flush/compaction worker pool size shared by all shards (0: min(GOMAXPROCS, shards+2), floor 2)")
		subcomp     = flag.Int("subcompactions", 0, "max parallel slices one leveled compaction may split into (0: up to the pool size; 1: monolithic)")
	)
	flag.Parse()
	if *bgWorkers < 0 {
		fmt.Fprintf(os.Stderr, "triaddb: -bg-workers %d: want 0 (default size) or a positive worker count\n", *bgWorkers)
		flag.Usage()
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: triaddb [-dir DIR] [-baseline] [-shards N] [-partitioner hash|range] [-splits a,b,c] put|get|del|scan|stats|bench ...")
		os.Exit(2)
	}

	profile := triad.ProfileTriad
	if *baseline {
		profile = triad.ProfileBaseline
	}
	opts := triad.Options{
		Profile: profile, Partitioner: *partitioner, BlockCacheBytes: *cacheBytes,
		BackgroundWorkers: *bgWorkers, MaxSubcompactions: *subcomp,
	}
	if *splits != "" {
		for _, s := range strings.Split(*splits, ",") {
			opts.RangeSplits = append(opts.RangeSplits, []byte(s))
		}
	}
	if *shards > 1 {
		opts.Shards = *shards
		opts.ShardFS = triad.ShardDirs(*dir)
	} else {
		// Refuse to open the root of a sharded store as one instance:
		// the shard subdirectories would be invisible and every key
		// would read as missing.
		if st, err := os.Stat(filepath.Join(*dir, "shard-000")); err == nil && st.IsDir() {
			fatalIf(fmt.Errorf("store at %s was created sharded (found shard-000/); pass -shards with the original count", *dir))
		}
		fs, err := vfs.NewOSFS(*dir)
		fatalIf(err)
		opts.FS = fs
	}
	db, err := triad.Open(opts)
	fatalIf(err)
	defer func() { fatalIf(db.Close()) }()

	switch args[0] {
	case "put":
		need(args, 3, "put <key> <value>")
		fatalIf(db.Put([]byte(args[1]), []byte(args[2])))
	case "get":
		need(args, 2, "get <key>")
		v, err := db.Get([]byte(args[1]))
		if errors.Is(err, triad.ErrNotFound) {
			fmt.Println("(not found)")
			return
		}
		fatalIf(err)
		fmt.Println(string(v))
	case "del":
		need(args, 2, "del <key>")
		fatalIf(db.Delete([]byte(args[1])))
	case "scan":
		var start, limit []byte
		if len(args) > 1 {
			start = []byte(args[1])
		}
		if len(args) > 2 {
			limit = []byte(args[2])
		}
		it, err := db.NewIterator(start, limit)
		fatalIf(err)
		for it.Next() {
			fmt.Printf("%s = %s\n", it.Key(), it.Value())
		}
		fatalIf(it.Close())
	case "stats":
		m := db.Metrics()
		fmt.Printf("level files: %v\n", db.NumLevelFiles())
		fmt.Printf("flushes: %d (skipped: %d)  compactions: %d (deferred: %d)\n",
			m.Flushes, m.FlushSkips, m.Compactions, m.CompactionsDeferred)
		fmt.Printf("bytes: logged %d (relogged %d)  flushed %d  compacted %d\n",
			m.BytesLogged, m.BytesRelogged, m.BytesFlushed, m.BytesCompacted)
		fmt.Printf("WA: %.2f  RA: %.2f\n", m.WriteAmplification(), m.ReadAmplification())
		if *shards > 1 {
			// The sharded engine's dump adds the partitioner, the
			// per-shard balance table, and the ledger's WA decomposition
			// (user/WAL/flush/compaction bytes by source).
			fmt.Print(db.Stats())
		}
		if h := db.ApplyLatency(); h != nil && h.Count() > 0 {
			printQuantiles("apply latency", h.Snapshot())
		}
		if j := db.Events(); j != nil && j.Total() > 0 {
			fmt.Printf("background events (%d total, newest first):\n", j.Total())
			for _, e := range j.Events(5) {
				fmt.Println(" ", e)
			}
		}
	case "bench":
		fsBench := flag.NewFlagSet("bench", flag.ExitOnError)
		n := fsBench.Int64("n", 100_000, "operations")
		keys := fsBench.Uint64("keys", 50_000, "key-space size")
		reads := fsBench.Float64("reads", 0.1, "read fraction")
		fatalIf(fsBench.Parse(args[1:]))
		mix := workload.Mix{Dist: workload.HotCold{N: *keys, HotFraction: 0.01, HotAccess: 0.99}, ReadFraction: *reads}
		stream := mix.NewStream(1)
		// SIGINT/SIGTERM stop the loop instead of killing the process,
		// so the deferred Close flushes buffered work to disk.
		ctx, stop := shutdown.Notify()
		defer stop()
		getLat, putLat := obs.NewHist(), obs.NewHist()
		start := time.Now()
		done := int64(0)
		for ; done < *n; done++ {
			if done%1024 == 0 && ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "triaddb: interrupted, flushing")
				break
			}
			op := stream.Next()
			opStart := time.Now()
			if op.Read {
				if _, err := db.Get(op.Key); err != nil && !errors.Is(err, triad.ErrNotFound) {
					fatalIf(err)
				}
				getLat.Record(time.Since(opStart))
			} else {
				fatalIf(db.Put(op.Key, op.Value))
				putLat.Record(time.Since(opStart))
			}
		}
		el := time.Since(start)
		fmt.Printf("%d ops in %s = %.1f KOPS\n", done, el.Round(time.Millisecond), float64(done)/el.Seconds()/1000)
		printQuantiles("get latency", getLat.Snapshot())
		printQuantiles("put latency", putLat.Snapshot())
		if h := db.ApplyLatency(); h != nil {
			printQuantiles("apply latency", h.Snapshot())
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", args[0])
		os.Exit(2)
	}
}

// printQuantiles renders one latency distribution as a quantile line;
// empty distributions print nothing.
func printQuantiles(name string, h histogram.H) {
	if h.Count() == 0 {
		return
	}
	fmt.Printf("%s: n=%d p50=%s p90=%s p99=%s p99.9=%s max=%s\n",
		name, h.Count(), h.Quantile(0.50), h.Quantile(0.90),
		h.Quantile(0.99), h.Quantile(0.999), h.Max())
}

func need(args []string, n int, usage string) {
	if len(args) < n {
		fmt.Fprintf(os.Stderr, "usage: triaddb %s\n", usage)
		os.Exit(2)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "triaddb:", err)
		os.Exit(1)
	}
}
