// Benchmarks that time one layer or one mechanism: the put path, the
// public Put/Get/scan surface, and what tracing costs the loopback
// server. The paper's figures are
// triadbench's (go run ./cmd/triadbench -h); the gated end-to-end numbers
// are bench/'s. Run
//
//	go test -run=NONE -bench=BenchmarkPutPath -benchmem
package triad

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/lsm"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// netScale sizes the loopback server runs of the tracing benchmark.
func netScale() harness.Scale {
	return harness.Scale{Keys: 20_000, Ops: 40_000, MemtableBytes: 384 << 10}
}

// BenchmarkTraceOverhead is the acceptance benchmark for request
// tracing: the 8-connection loopback server run at -trace-sample 0 (tracer
// off entirely, the floor), 0.01 (a production-reasonable rate, which
// must stay within noise of that floor), and 1.0 (every command traced —
// the worst case, quantifying what full tracing costs).
func BenchmarkTraceOverhead(b *testing.B) {
	s := netScale()
	for _, v := range []struct {
		name   string
		sample float64
	}{
		{"sample-0", 0},
		{"sample-0.01", 0.01},
		{"sample-1", 1},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.NetRun(s, 4, 8, v.sample)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.KOPS, "kops")
				b.ReportMetric(float64(res.P99.Nanoseconds())/1000, "p99_us")
			}
		})
	}
}

// BenchmarkPutPath measures what one commit costs on the foreground path
// of a 2-shard store: a Put of a key the memtable holds (put/hot) and of
// one it does not (put/new), a 64-put batch (apply/64, one WAL write per
// touched shard), and Puts from two goroutines spread over the two shards
// (put/w2-s2: the commit locks under contention).
// ns/op and allocs/op are the numbers; TestPutPathBudget in
// internal/shard gates the allocations and the device writes.
func BenchmarkPutPath(b *testing.B) {
	const shards, memtable = 2, 384 << 10
	engine := lsm.TriadOptions(nil)
	engine.MemtableBytes = memtable
	engine.CommitLogBytes = 4 * memtable
	engine.FlushThresholdBytes = memtable / 2
	engine.BaseLevelBytes = 8 * memtable
	engine.TargetFileBytes = memtable
	openDB := func(b *testing.B) *shard.DB {
		db, err := shard.Open(shard.Options{
			Shards: shards,
			Engine: shard.DivideBudgets(engine, shards),
			NewFS:  shard.MemFS(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%010d", i)) }
	val := make([]byte, 255)
	const hotKeys = 256
	b.Run("put/hot", func(b *testing.B) {
		db := openDB(b)
		defer db.Close()
		keys := make([][]byte, hotKeys)
		for i := range keys {
			keys[i] = key(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Put(keys[i%hotKeys], val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("put/new", func(b *testing.B) {
		db := openDB(b)
		defer db.Close()
		k := key(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint64(k[len(k)-8:], uint64(i))
			if err := db.Put(k, val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply/64", func(b *testing.B) {
		db := openDB(b)
		defer db.Close()
		k := key(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := &shard.Batch{}
			for j := 0; j < 64; j++ {
				binary.BigEndian.PutUint64(k[len(k)-8:], uint64(i*64+j))
				batch.Put(k, val)
			}
			if err := db.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("put/w2-s2", func(b *testing.B) {
		db := openDB(b)
		defer db.Close()
		const writers = 2
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			n := b.N / writers
			if w < b.N%writers {
				n++
			}
			wg.Add(1)
			go func(w, n int) {
				defer wg.Done()
				k := key(0)
				for i := 0; i < n; i++ {
					binary.BigEndian.PutUint64(k[len(k)-8:], uint64(w*hotKeys+i%hotKeys))
					if err := db.Put(k, val); err != nil {
						b.Error(err)
						return
					}
				}
			}(w, n)
		}
		wg.Wait()
	})
}

// --- Micro-benchmarks for the public API ---

// BenchmarkPut measures the raw write path (WAL append + memtable).
func BenchmarkPut(b *testing.B) {
	for _, mode := range []string{"baseline", "triad"} {
		b.Run(mode, func(b *testing.B) {
			fs := vfs.NewMemFS()
			profile := ProfileTriad
			if mode == "baseline" {
				profile = ProfileBaseline
			}
			db, err := Open(Options{FS: fs, Profile: profile})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			key := make([]byte, 8)
			val := make([]byte, 255)
			b.SetBytes(263)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				workload.EncodeKey(key, uint64(i%100_000))
				if err := db.Put(key, val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPutUnderSnapshots measures BenchmarkPut's triad write path while
// snapshots read the store: none, one held throughout, and one reopened
// every 100 puts (the next opens, then the last closes). An overwrite keeps
// the version an open snapshot reads behind the new entry.
func BenchmarkPutUnderSnapshots(b *testing.B) {
	for _, mode := range []string{"none", "held", "churn"} {
		b.Run(mode, func(b *testing.B) {
			db, err := Open(Options{FS: vfs.NewMemFS(), Profile: ProfileTriad})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			var snap *Snapshot
			reopen := func() {
				next, err := db.NewSnapshot()
				if err != nil {
					b.Fatal(err)
				}
				if snap != nil {
					snap.Close()
				}
				snap = next
			}
			if mode != "none" {
				reopen()
			}
			defer func() {
				if snap != nil {
					snap.Close()
				}
			}()
			key := make([]byte, 8)
			val := make([]byte, 255)
			b.SetBytes(263)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "churn" && i%100 == 0 {
					reopen()
				}
				workload.EncodeKey(key, uint64(i%100_000))
				if err := db.Put(key, val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGet measures point lookups over a settled multi-level tree.
func BenchmarkGet(b *testing.B) {
	for _, mode := range []string{"baseline", "triad"} {
		b.Run(mode, func(b *testing.B) {
			engine := lsm.TriadOptions(vfs.NewMemFS())
			if mode == "baseline" {
				engine = lsm.DefaultOptions(engine.FS)
			}
			engine.MemtableBytes = 512 << 10
			db, err := Open(Options{Advanced: &engine})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			key := make([]byte, 8)
			val := make([]byte, 255)
			const n = 50_000
			for i := uint64(0); i < n; i++ {
				workload.EncodeKey(key, i)
				if err := db.Put(key, val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				workload.EncodeKey(key, uint64(i)%n)
				if _, err := db.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotScan measures opening a streaming scan and reading from
// it: the first 10 entries of a 100k-key store (allocations per op and
// first-entry latency in ns), then the first 10 entries and the whole of a
// 4-shard store of 100k keys per shard, whose scans merge every shard's
// sources. Opening a scan costs one seek per source, plus a whole read of
// each L0 CL-SSTable's commit logs.
func BenchmarkSnapshotScan(b *testing.B) {
	const keys = 100_000
	openDB := func(b *testing.B, shards int) *DB {
		engine := lsm.TriadOptions(nil)
		engine.MemtableBytes = 1 << 20
		db, err := Open(Options{Shards: shards, ShardFS: ShardMemFS(), Advanced: &engine})
		if err != nil {
			b.Fatal(err)
		}
		val := []byte("0123456789abcdef0123456789abcdef")
		for i := 0; i < keys*shards; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), val); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		return db
	}
	// first10 times opening a scan of db and reading 10 entries.
	first10 := func(b *testing.B, db *DB) {
		var firstEntryNS int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			it, err := db.NewIterator(nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !it.Next() {
				b.Fatal("empty scan")
			}
			firstEntryNS += time.Since(start).Nanoseconds()
			for i := 0; i < 9; i++ {
				if !it.Next() {
					b.Fatal("iterator exhausted early")
				}
			}
			if err := it.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(firstEntryNS)/float64(b.N), "first-entry-ns")
	}
	b.Run("streaming-first10", func(b *testing.B) {
		db := openDB(b, 1)
		defer db.Close()
		first10(b, db)
	})

	sharded := openDB(b, 4)
	defer sharded.Close()
	b.Run("4-shards-first10", func(b *testing.B) { first10(b, sharded) })
	b.Run("4-shards-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it, err := sharded.NewIterator(nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for it.Next() {
				n++
			}
			if err := it.Close(); err != nil {
				b.Fatal(err)
			}
			if n != 4*keys {
				b.Fatalf("full scan saw %d keys, want %d", n, 4*keys)
			}
		}
	})
}
