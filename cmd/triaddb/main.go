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

	triad "repro"
	"repro/internal/vfs"
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
	if *shards < 1 {
		fmt.Fprintf(stderr, "triaddb: -shards %d: want a positive shard count\n", *shards)
		fl.Usage()
		return 2
	}
	if *cacheBytes < 0 {
		fmt.Fprintf(stderr, "triaddb: -cache-bytes %d: want 0 (no block cache) or a positive byte count\n", *cacheBytes)
		fl.Usage()
		return 2
	}
	if *bgWorkers < 0 {
		fmt.Fprintf(stderr, "triaddb: -bg-workers %d: want 0 (default size) or a positive worker count\n", *bgWorkers)
		fl.Usage()
		return 2
	}
	args = fl.Args()
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: triaddb [-dir DIR] [-baseline] [-shards N] put|get|del|scan|stats ...")
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
		var it *triad.Iterator
		if it, err = db.NewIterator(start, limit); err == nil {
			for it.Next() {
				fmt.Fprintf(stdout, "%s = %s\n", it.Key(), it.Value())
			}
			err = it.Close()
		}
	case "stats":
		fmt.Fprint(stdout, db.Stats())
	default:
		fmt.Fprintf(stderr, "unknown command %q\n", args[0])
		return 2
	}
	if err != nil {
		return fail(err)
	}
	return 0
}
