// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§5), plus ablation benches for the TRIAD knobs.
//
// Each figure benchmark executes the same experiment grid the triadbench
// command prints, at a reduced scale so the full suite completes in
// minutes, and reports the figure's headline quantities via
// b.ReportMetric (KOPS, write amplification, compacted MB, ...). Run
//
//	go test -bench=. -benchmem
//
// or a single figure:
//
//	go test -bench=BenchmarkFig9A -benchmem
package triad

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bgsched"
	"repro/internal/harness"
	"repro/internal/lsm"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// benchScale keeps every figure under a few seconds per iteration.
func benchScale() harness.Scale {
	return harness.Scale{
		Keys:          40_000,
		Ops:           80_000,
		ProdScale:     1500,
		ProdOps:       100_000,
		MemtableBytes: 384 << 10,
		Threads:       8,
	}
}

// BenchmarkFig2 measures the throughput cost of background I/O
// (paper Figure 2): baseline vs the same engine with flush/compaction
// disabled, over four workload mixes.
func BenchmarkFig2(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		cells, err := harness.Fig2(s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		// Report the uniform 10r-90w pair, the paper's starkest case.
		b.ReportMetric(cells[2].Res.KOPS, "base_kops")
		b.ReportMetric(cells[3].Res.KOPS, "nobg_kops")
		b.ReportMetric(cells[3].Res.KOPS/cells[2].Res.KOPS, "speedup")
	}
}

// BenchmarkFig9A runs the four production workload models on baseline and
// TRIAD (paper Figure 9A: throughput and write amplification).
func BenchmarkFig9A(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		cells, err := harness.Fig9A(s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var maxGain, maxWAcut float64
		for j := 0; j < len(cells); j += 2 {
			base, triad := cells[j].Res, cells[j+1].Res
			if g := triad.KOPS / base.KOPS; g > maxGain {
				maxGain = g
			}
			if triad.WA > 0 {
				if c := base.WA / triad.WA; c > maxWAcut {
					maxWAcut = c
				}
			}
		}
		b.ReportMetric(maxGain, "max_tput_gain_x")
		b.ReportMetric(maxWAcut, "max_wa_cut_x")
	}
}

// BenchmarkFig9B sweeps thread counts on the three synthetic skews
// (paper Figure 9B throughput grid; Figure 9C's WA comes from the same
// runs). The full grid lives in Fig9BC; here each skew × thread cell is a
// sub-benchmark so `-bench` can select slices of the grid.
func BenchmarkFig9B(b *testing.B) {
	s := benchScale()
	skews := map[string]workload.KeyDist{
		"Skew1-99":  workload.HotCold{N: s.Keys, HotFraction: 0.01, HotAccess: 0.99},
		"Skew20-80": workload.HotCold{N: s.Keys, HotFraction: 0.20, HotAccess: 0.80},
		"NoSkew":    workload.Uniform{N: s.Keys},
	}
	for name, dist := range skews {
		for _, threads := range []int{1, 8, 16} {
			for _, mode := range []string{"baseline", "triad"} {
				b.Run(fmt.Sprintf("%s/t%d/%s", name, threads, mode), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res := runOne(b, s, mode, dist, 0.1, threads)
						b.ReportMetric(res.KOPS, "kops")
						b.ReportMetric(res.WA, "wa")
					}
				})
			}
		}
	}
}

// BenchmarkFig9C reports the write-amplification comparison at the
// paper's 8-thread point for each skew (Figure 9C).
func BenchmarkFig9C(b *testing.B) {
	s := benchScale()
	skews := []struct {
		name string
		dist workload.KeyDist
	}{
		{"Skew1-99", workload.HotCold{N: s.Keys, HotFraction: 0.01, HotAccess: 0.99}},
		{"Skew20-80", workload.HotCold{N: s.Keys, HotFraction: 0.20, HotAccess: 0.80}},
		{"NoSkew", workload.Uniform{N: s.Keys}},
	}
	for _, sk := range skews {
		b.Run(sk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := runOne(b, s, "baseline", sk.dist, 0.1, s.Threads)
				triad := runOne(b, s, "triad", sk.dist, 0.1, s.Threads)
				b.ReportMetric(base.WA, "base_wa")
				b.ReportMetric(triad.WA, "triad_wa")
			}
		})
	}
}

// BenchmarkFig9D reports compacted bytes and % time in compaction
// (paper Figure 9D) for the three skews.
func BenchmarkFig9D(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		cells, err := harness.Fig9D(s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		// Cells alternate triad/base per skew; report the skewed pair.
		b.ReportMetric(cells[0].Res.CompactedMB, "triad_skew_compMB")
		b.ReportMetric(cells[1].Res.CompactedMB, "base_skew_compMB")
		b.ReportMetric(cells[0].Res.PctCompaction, "triad_skew_pct")
		b.ReportMetric(cells[1].Res.PctCompaction, "base_skew_pct")
	}
}

// BenchmarkFig10 reports the per-technique throughput breakdown
// (paper Figure 10) on the uniform and highly skewed workloads.
func BenchmarkFig10(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig10(s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for wl, cells := range out {
			prefix := "uniform_"
			if wl == "Skew 1-99" {
				prefix = "skew_"
			}
			for _, c := range cells {
				switch {
				case contains(c.Label, "TRIAD-MEM"):
					b.ReportMetric(c.Res.KOPS, prefix+"mem_kops")
				case contains(c.Label, "TRIAD-DISK"):
					b.ReportMetric(c.Res.KOPS, prefix+"disk_kops")
				case contains(c.Label, "TRIAD-LOG"):
					b.ReportMetric(c.Res.KOPS, prefix+"log_kops")
				case contains(c.Label, "RocksDB"):
					b.ReportMetric(c.Res.KOPS, prefix+"base_kops")
				default:
					b.ReportMetric(c.Res.KOPS, prefix+"triad_kops")
				}
			}
		}
	}
}

// BenchmarkFig11 reports the per-technique WA (normalized to baseline)
// and the RA breakdown (paper Figure 11).
func BenchmarkFig11(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig11(s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		uniform := out["no skew"]
		var baseWA float64
		for _, c := range uniform {
			if contains(c.Label, "RocksDB") {
				baseWA = c.Res.WA
			}
		}
		for _, c := range uniform {
			switch {
			case contains(c.Label, "TRIAD-DISK"):
				b.ReportMetric(c.Res.WA/baseWA, "disk_norm_wa")
				b.ReportMetric(c.Res.RA, "disk_ra")
			case contains(c.Label, "TRIAD-LOG"):
				b.ReportMetric(c.Res.WA/baseWA, "log_norm_wa")
			case contains(c.Label, "RocksDB"):
				b.ReportMetric(c.Res.RA, "base_ra")
			}
		}
	}
}

// --- Ablation benches for the TRIAD knobs DESIGN.md calls out ---

// BenchmarkAblationOverlapThreshold sweeps TRIAD-DISK's overlap-ratio
// gate on a uniform workload.
func BenchmarkAblationOverlapThreshold(b *testing.B) {
	s := benchScale()
	for _, th := range []float64{0.1, 0.4, 0.8} {
		b.Run(fmt.Sprintf("th=%.1f", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runCustom(b, s, workload.Uniform{N: s.Keys}, 0.1, func(o *lsm.Options) {
					o.TriadMem, o.TriadDisk, o.TriadLog = true, true, true
					o.OverlapRatioThreshold = th
				})
				b.ReportMetric(res.WA, "wa")
				b.ReportMetric(float64(res.Deferred), "deferrals")
			}
		})
	}
}

// BenchmarkAblationMaxL0 sweeps the forced-compaction L0 cap.
func BenchmarkAblationMaxL0(b *testing.B) {
	s := benchScale()
	for _, maxL0 := range []int{4, 6, 12} {
		b.Run(fmt.Sprintf("maxL0=%d", maxL0), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runCustom(b, s, workload.Uniform{N: s.Keys}, 0.1, func(o *lsm.Options) {
					o.TriadMem, o.TriadDisk, o.TriadLog = true, true, true
					o.MaxFilesL0 = maxL0
				})
				b.ReportMetric(res.WA, "wa")
				b.ReportMetric(res.RA, "ra")
			}
		})
	}
}

// BenchmarkAblationFlushTH sweeps TRIAD-MEM's FLUSH_TH small-memtable
// skip on the highly skewed workload that triggers log-full flushes.
func BenchmarkAblationFlushTH(b *testing.B) {
	s := benchScale()
	dist := workload.HotCold{N: s.Keys, HotFraction: 0.01, HotAccess: 0.99}
	for _, frac := range []float64{0, 0.5, 0.9} {
		b.Run(fmt.Sprintf("th=%.1f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runCustom(b, s, dist, 0.1, func(o *lsm.Options) {
					o.TriadMem, o.TriadDisk, o.TriadLog = true, true, true
					if frac == 0 {
						o.FlushThresholdBytes = 1 // effectively never skip
					} else {
						o.FlushThresholdBytes = int64(frac * float64(o.MemtableBytes))
					}
				})
				b.ReportMetric(float64(res.FlushSkips), "flush_skips")
				b.ReportMetric(res.WA, "wa")
			}
		})
	}
}

// BenchmarkSizeTiered compares leveled vs size-tiered compaction, with
// and without TRIAD-DISK's HLL bucket selection (the §2 adaptation).
func BenchmarkSizeTiered(b *testing.B) {
	s := benchScale()
	dist := workload.HotCold{N: s.Keys, HotFraction: 0.20, HotAccess: 0.80}
	for _, v := range []struct {
		name       string
		sizeTiered bool
		triadDisk  bool
	}{
		{"leveled", false, false},
		{"size-tiered", true, false},
		{"size-tiered+disk", true, true},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runCustom(b, s, dist, 0.1, func(o *lsm.Options) {
					o.SizeTieredCompaction = v.sizeTiered
					o.TriadDisk = v.triadDisk
				})
				b.ReportMetric(res.KOPS, "kops")
				b.ReportMetric(res.WA, "wa")
				b.ReportMetric(res.RA, "ra")
			}
		})
	}
}

// BenchmarkFig10Device is the SSD-latency-model variant of Figure 10
// (see EXPERIMENTS.md on why TRIAD-LOG needs charged I/O to shine).
func BenchmarkFig10Device(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		cells, err := harness.Fig10Device(s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			switch c.Label {
			case "TRIAD-LOG":
				b.ReportMetric(c.Res.KOPS, "log_kops")
			case "RocksDB":
				b.ReportMetric(c.Res.KOPS, "base_kops")
			case "TRIAD":
				b.ReportMetric(c.Res.KOPS, "triad_kops")
			}
		}
	}
}

// --- Sharded-engine scaling ---

// BenchmarkShardScaling measures concurrent mixed read/write throughput
// (8 parallel workers, 10% reads / 90% writes, uniform keys) against the
// sharded engine at 1, 2, 4 and 8 shards. Each shard is a full engine on
// its own simulated device, so the single-shard row pays for every WAL
// append and flush on one device behind one memtable mutex, while the
// multi-shard rows overlap those waits — the kops metric should rise
// with the shard count, demonstrating scaling over the 1-shard
// configuration.
func BenchmarkShardScaling(b *testing.B) {
	s := benchScale()
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Spec{
					Name:                "shard-bench",
					Engine:              benchShardEngine(s),
					Shards:              shards,
					DevicePerShard:      true,
					Mix:                 workload.Mix{Dist: workload.Uniform{N: s.Keys}, ReadFraction: 0.1},
					Threads:             8,
					Ops:                 s.Ops,
					PrepopulateFraction: 0.5,
					Latency:             harness.SSDModel(),
					Seed:                1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.KOPS, "kops")
				b.ReportMetric(res.WA, "wa")
				b.ReportMetric(float64(res.P99.Nanoseconds())/1000, "p99_us")
			}
		})
	}
}

func benchShardEngine(s harness.Scale) lsm.Options {
	o := lsm.TriadOptions(nil)
	o.MemtableBytes = s.MemtableBytes
	o.CommitLogBytes = 4 * s.MemtableBytes
	o.FlushThresholdBytes = s.MemtableBytes / 2
	o.BaseLevelBytes = 8 * s.MemtableBytes
	o.TargetFileBytes = s.MemtableBytes
	return o
}

// BenchmarkRangeScanSharded compares range-scan throughput on a 4-shard
// store under hash vs range partitioning, at identical budgets over the
// same settled keyspace. Each iteration runs one 1%-of-keyspace scan:
// under hash routing it k-way merges all four shards; under range
// routing it is almost always one shard's iterator, verbatim. The
// keys/s metric is the headline — range routing should win by several
// times at 4 shards.
func BenchmarkRangeScanSharded(b *testing.B) {
	s := benchScale()
	const shards, keySize = 4, 8
	span := s.Keys / 100
	for _, mode := range []string{"hash", "range"} {
		b.Run(mode, func(b *testing.B) {
			var part shard.Partitioner
			if mode == "range" {
				var err error
				part, err = shard.NewRange(harness.EvenRangeSplits(s.Keys, keySize, shards)...)
				if err != nil {
					b.Fatal(err)
				}
			}
			db, err := shard.Open(shard.Options{
				Shards:      shards,
				Engine:      shard.DivideBudgets(benchShardEngine(s), shards),
				NewFS:       shard.MemFS(),
				Partitioner: part,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			key := make([]byte, keySize)
			val := make([]byte, 128)
			for i := uint64(0); i < s.Keys; i++ {
				workload.EncodeKey(key, i)
				if err := db.Put(key, val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			lo := make([]byte, keySize)
			hi := make([]byte, keySize)
			var entries int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := (uint64(i) * 2654435761) % (s.Keys - span)
				workload.EncodeKey(lo, a)
				workload.EncodeKey(hi, a+span)
				it, err := db.NewIterator(lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				for it.Next() {
					entries++
				}
				if err := it.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if entries == 0 {
				b.Fatal("scans saw no entries")
			}
			b.ReportMetric(float64(entries)/b.Elapsed().Seconds(), "keys/s")
			b.ReportMetric(float64(entries)/float64(b.N), "keys/scan")
		})
	}
}

// BenchmarkNetObsOverhead is the acceptance benchmark for the
// observability layer: the 8-connection loopback server run with the
// full instrumentation (per-command histograms, stage timing, event
// journal, apply latency) against the -no-observability configuration
// where every recorder is nil. The instrumented kops must stay within
// a few percent of no-op recording — compare the two cells' kops.
func BenchmarkNetObsOverhead(b *testing.B) {
	s := benchScale()
	s.Keys = 20_000
	s.Ops = 40_000
	for _, v := range []struct {
		name  string
		noObs bool
	}{{"instrumented", false}, {"no-op", true}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.NetRun(s, 4, 8, v.noObs, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.KOPS, "kops")
				b.ReportMetric(float64(res.P99.Nanoseconds())/1000, "p99_us")
			}
		})
	}
}

// BenchmarkTraceOverhead is the acceptance benchmark for request
// tracing: the 8-connection loopback server run at -trace-sample 0 (tracer
// off entirely), 0.01 (a production-reasonable rate, which must stay
// within noise of the no-observability floor), and 1.0 (every command
// traced — the worst case, quantifying what full tracing costs).
func BenchmarkTraceOverhead(b *testing.B) {
	s := benchScale()
	s.Keys = 20_000
	s.Ops = 40_000
	for _, v := range []struct {
		name   string
		noObs  bool
		sample float64
	}{
		{"no-observability", true, 0},
		{"sample-0", false, 0},
		{"sample-0.01", false, 0.01},
		{"sample-1", false, 1},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.NetRun(s, 4, 8, v.noObs, v.sample)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.KOPS, "kops")
				b.ReportMetric(float64(res.P99.Nanoseconds())/1000, "p99_us")
			}
		})
	}
}

// BenchmarkCommitPipeline measures the store-wide commit pipeline under
// contention. apply/cross-w4 drives four goroutines issuing conflicting
// cross-shard batches (every batch writes the same key set spanning all
// shards) — the workload the epoch clock serializes. snapshot/idle is
// the raw capture cost of shard.DB.NewSnapshot; snapshot/under-load
// takes snapshots while the same conflicting writers run, which is the
// barrier cost the epoch pin replaced (formerly: quiesce cross-shard
// Applies and hold every shard's write lock at once).
func BenchmarkCommitPipeline(b *testing.B) {
	const shards = 4
	openStore := func(b *testing.B) *shard.DB {
		s := benchScale()
		db, err := shard.Open(shard.Options{
			Shards: shards,
			Engine: shard.DivideBudgets(benchShardEngine(s), shards),
			NewFS:  shard.MemFS(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	// conflictKeys spans every shard so each batch is a cross-shard
	// conflict with every other batch.
	conflictKeys := func(db *shard.DB) [][]byte {
		var keys [][]byte
		seen := make(map[int]bool)
		for i := 0; len(keys) < 4*shards; i++ {
			k := []byte(fmt.Sprintf("conflict-%04d", i))
			seen[db.Partitioner().Partition(k, shards)] = true
			keys = append(keys, k)
		}
		if len(seen) != shards {
			b.Fatal("conflict keys do not span all shards")
		}
		return keys
	}
	val := []byte("0123456789abcdef0123456789abcdef")
	b.Run("apply/cross-w4", func(b *testing.B) {
		db := openStore(b)
		defer db.Close()
		keys := conflictKeys(db)
		// Exactly 4 writers regardless of GOMAXPROCS (RunParallel would
		// scale with the machine and the w4 label would lie); b.N is
		// split across them.
		const writers = 4
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			n := b.N / writers
			if w < b.N%writers {
				n++
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					batch := &shard.Batch{}
					for _, k := range keys {
						batch.Put(k, val)
					}
					if err := db.Apply(batch); err != nil {
						b.Error(err)
						return
					}
				}
			}(n)
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "batches/s")
		b.ReportMetric(float64(b.N*len(keys))/b.Elapsed().Seconds()/1000, "kops")
	})
	b.Run("snapshot/idle", func(b *testing.B) {
		db := openStore(b)
		defer db.Close()
		for i := 0; i < 10_000; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := db.NewSnapshot()
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot/under-load", func(b *testing.B) {
		db := openStore(b)
		defer db.Close()
		keys := conflictKeys(db)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					batch := &shard.Batch{}
					for _, k := range keys {
						batch.Put(k, val)
					}
					if err := db.Apply(batch); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := db.NewSnapshot()
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkPutPath measures what one commit costs on the foreground path
// of a 2-shard store: a Put of a key the memtable holds (put/hot) and of
// one it does not (put/new), a 64-put batch (apply/64, one WAL write per
// touched shard), and Puts from two goroutines spread over the two shards
// (put/w2-s2: the commit locks and the watermark under contention).
// ns/op and allocs/op are the numbers; TestPutPathBudget in
// internal/shard gates the allocations and the device writes.
func BenchmarkPutPath(b *testing.B) {
	const shards = 2
	openStore := func(b *testing.B) *shard.DB {
		db, err := shard.Open(shard.Options{
			Shards: shards,
			Engine: shard.DivideBudgets(benchShardEngine(benchScale()), shards),
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
		db := openStore(b)
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
		db := openStore(b)
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
		db := openStore(b)
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
		db := openStore(b)
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

// --- Background-scheduler benchmarks ---

// BenchmarkSubcompaction times one full-tree compaction of the same
// settled store, monolithic vs split into parallel key-range slices on
// a 4-worker pool. The timed region is CompactAll only; load and flush
// happen outside the timer. Meaningful at -cpu 2,4: with one core the
// sliced row degenerates to sequential merges plus split overhead,
// with spare cores it should approach a worker-count speedup.
func BenchmarkSubcompaction(b *testing.B) {
	const keys = 60_000
	for _, v := range []struct {
		name    string
		subcomp int
	}{
		{"monolithic", 1},
		{"sliced-4", 4},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pool := bgsched.NewPool(4)
				o := lsm.TriadOptions(vfs.NewMemFS())
				o.MemtableBytes = 256 << 10
				o.TargetFileBytes = 64 << 10
				o.BaseLevelBytes = 512 << 10
				o.DisableAutoCompaction = true
				o.Scheduler = pool
				o.MaxSubcompactions = v.subcomp
				db, err := lsm.Open(o)
				if err != nil {
					b.Fatal(err)
				}
				val := []byte("0123456789abcdef0123456789abcdef0123456789abcdef")
				for k := 0; k < keys; k++ {
					if err := db.Put([]byte(fmt.Sprintf("key-%08d", k)), val); err != nil {
						b.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := db.CompactAll(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				pool.Close()
				b.StartTimer()
			}
		})
	}
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

// BenchmarkGet measures point lookups over a settled multi-level tree.
func BenchmarkGet(b *testing.B) {
	for _, mode := range []string{"baseline", "triad"} {
		b.Run(mode, func(b *testing.B) {
			fs := vfs.NewMemFS()
			profile := ProfileTriad
			if mode == "baseline" {
				profile = ProfileBaseline
			}
			db, err := Open(Options{FS: fs, Profile: profile, MemtableBytes: 512 << 10})
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

// --- helpers ---

func runOne(b *testing.B, s harness.Scale, mode string, dist workload.KeyDist, readFrac float64, threads int) harness.Result {
	b.Helper()
	return runCustom(b, s, dist, readFrac, func(o *lsm.Options) {
		switch mode {
		case "triad":
			o.TriadMem, o.TriadDisk, o.TriadLog = true, true, true
		}
	}, threads)
}

func runCustom(b *testing.B, s harness.Scale, dist workload.KeyDist, readFrac float64, tweak func(*lsm.Options), threadsOpt ...int) harness.Result {
	b.Helper()
	threads := s.Threads
	if len(threadsOpt) > 0 {
		threads = threadsOpt[0]
	}
	o := lsm.DefaultOptions(nil)
	o.MemtableBytes = s.MemtableBytes
	o.CommitLogBytes = 4 * s.MemtableBytes
	o.FlushThresholdBytes = s.MemtableBytes / 2
	o.BaseLevelBytes = 8 * s.MemtableBytes
	o.TargetFileBytes = s.MemtableBytes
	tweak(&o)
	res, err := harness.Run(harness.Spec{
		Name:                "bench",
		Engine:              o,
		Mix:                 workload.Mix{Dist: dist, ReadFraction: readFrac},
		Threads:             threads,
		Ops:                 s.Ops,
		PrepopulateFraction: 0.5,
		Seed:                1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// BenchmarkSnapshotScan measures what the streaming snapshot iterator
// bought: reading the first 10 entries of a 100k-key store. The
// "streaming" case is the real iterator; "materialized" reproduces the
// pre-snapshot iterator's algorithm (clone every entry in range at
// creation, then read) as the baseline. Reported per op: allocations
// (the acceptance criterion — streaming must be >= 10x lower) and
// first-entry latency in ns.
func BenchmarkSnapshotScan(b *testing.B) {
	const keys = 100_000
	openStore := func(b *testing.B) *DB {
		db, err := Open(Options{FS: vfs.NewMemFS(), Profile: ProfileTriad, MemtableBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		val := []byte("0123456789abcdef0123456789abcdef")
		for i := 0; i < keys; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), val); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.Run("streaming-first10", func(b *testing.B) {
		db := openStore(b)
		defer db.Close()
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
	})
	b.Run("materialized-first10", func(b *testing.B) {
		db := openStore(b)
		defer db.Close()
		var firstEntryNS int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			// The old iterator: copy the whole range up front.
			it, err := db.NewIterator(nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			var ks, vs [][]byte
			for it.Next() {
				ks = append(ks, append([]byte(nil), it.Key()...))
				vs = append(vs, append([]byte(nil), it.Value()...))
			}
			if err := it.Close(); err != nil {
				b.Fatal(err)
			}
			mat := &sliceIter{keys: ks, vals: vs}
			if !mat.Next() {
				b.Fatal("empty scan")
			}
			firstEntryNS += time.Since(start).Nanoseconds()
			for i := 0; i < 9; i++ {
				if !mat.Next() {
					b.Fatal("iterator exhausted early")
				}
			}
		}
		b.ReportMetric(float64(firstEntryNS)/float64(b.N), "first-entry-ns")
	})
}

// sliceIter replays materialized entries through the Iterator surface.
type sliceIter struct {
	keys, vals [][]byte
	pos        int
}

func (s *sliceIter) Next() bool {
	if s.pos >= len(s.keys) {
		return false
	}
	s.pos++
	return true
}
func (s *sliceIter) Key() []byte   { return s.keys[s.pos-1] }
func (s *sliceIter) Value() []byte { return s.vals[s.pos-1] }
func (s *sliceIter) Err() error    { return nil }
func (s *sliceIter) Close() error  { return nil }
