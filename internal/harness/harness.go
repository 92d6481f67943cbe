// Package harness runs evaluation workloads against the engine and
// collects the paper's metrics (§5.1): throughput in KOPS, bytes written
// to disk by origin, time spent in background operations, write
// amplification and read amplification.
//
// A Spec describes one run (engine configuration + workload + thread
// count); Run executes it on one engine, as the paper's evaluation does —
// a one-shard store, opened as every other store is — over a fresh
// in-memory filesystem: pre-populate, settle the tree, then drive the
// timed operation phase from N workers.
package harness

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/histogram"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Spec describes one experiment run.
type Spec struct {
	// Name labels the run in tables.
	Name string
	// Engine is the engine configuration; Run opens it as a one-shard
	// store, which supplies its FS.
	Engine lsm.Options
	// Mix is the operation mix (distribution, read fraction, sizes).
	Mix workload.Mix
	// Threads is the number of concurrent workers.
	Threads int
	// Ops is the total operation count across workers.
	Ops int64
	// PrepopulateFraction of the key space is inserted before the timed
	// phase (the paper initializes "roughly half of the keys"; Figure 2
	// pre-populates every key).
	PrepopulateFraction float64
	// DisableBGAfterLoad reproduces Figure 2's No-BG-I/O system: the
	// tree is populated normally, then background I/O is switched off.
	DisableBGAfterLoad bool
	// Latency, when non-zero, charges simulated device time for every
	// byte moved through the filesystem — used by the device-backed
	// experiment variants where write I/O has a real cost.
	Latency vfs.LatencyModel
	// Seed makes the run deterministic.
	Seed int64
}

// Result is one run's measurements.
type Result struct {
	Name    string
	Threads int
	Ops     int64
	Elapsed time.Duration
	// KOPS is user operations per millisecond (thousands/second).
	KOPS float64
	// WA is system-wide write amplification (all storage writes per
	// user byte); FlushRelWA is the paper's flush-relative formula.
	WA, FlushRelWA float64
	// RA is mean disk accesses per Get.
	RA float64
	// CompactedMB / FlushedMB / LoggedMB are the storage writes by
	// origin during the timed phase.
	CompactedMB, FlushedMB, LoggedMB float64
	// PctCompaction is compaction wall time over elapsed time.
	PctCompaction float64
	// PctBackground is flush+compaction wall time over elapsed time.
	PctBackground float64
	// Deferred counts TRIAD-DISK compaction deferrals.
	Deferred int64
	// FlushSkips counts TRIAD-MEM small-memtable flush skips.
	FlushSkips int64
	// CacheHits/CacheMisses are the block-cache lookups during the timed
	// phase; CacheHitRate is hits over lookups (0 with no lookups).
	CacheHits, CacheMisses int64
	CacheHitRate           float64
	// P50 / P99 / P999 are per-operation latency quantiles and Lat is
	// the full merged histogram (every operation is recorded).
	P50, P99, P999 time.Duration
	Lat            histogram.H
	// Snap is the raw metric window for further analysis.
	Snap metrics.Snapshot
}

// Run executes one spec on a one-shard store over a fresh MemFS charged by
// the spec's latency model.
func Run(spec Spec) (Result, error) {
	opts := spec.Engine
	opts.Seed = spec.Seed
	db, err := shard.Open(shard.Options{
		Engine: opts,
		NewFS: func(int) (vfs.FS, error) {
			fs := vfs.NewMemFS()
			fs.SetHooks(vfs.Hooks{Before: spec.Latency.Before})
			return fs, nil
		},
	})
	if err != nil {
		return Result{}, err
	}
	defer db.Close()

	if err := prepopulate(db.Put, spec); err != nil {
		return Result{}, err
	}
	// Settle: drain flushes and compactions so each run starts from an
	// equivalent tree.
	if err := db.Flush(); err != nil {
		return Result{}, err
	}
	if err := db.CompactAll(); err != nil {
		return Result{}, err
	}
	if spec.DisableBGAfterLoad {
		db.Shard(0).SetDisableBackgroundIO(true)
	}

	threads := spec.Threads
	if threads <= 0 {
		threads = 1
	}
	before := db.Metrics()
	cacheBefore := db.BlockCacheStats()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	perWorker := spec.Ops / int64(threads)
	// Every operation's latency lands in one striped concurrent recorder
	// (fixed memory, zero-alloc Record) snapshotted after the run — the
	// same recorder the server's observability layer uses.
	rec := obs.NewHist()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := spec.Mix.NewStream(spec.Seed + int64(w)*7919)
			for i := int64(0); i < perWorker; i++ {
				op := stream.Next()
				t0 := time.Now()
				switch {
				case op.Read:
					if _, err := db.Get(op.Key); err != nil && err != lsm.ErrNotFound {
						errCh <- err
						return
					}
				case op.Delete:
					if err := db.Delete(op.Key); err != nil {
						errCh <- err
						return
					}
				default:
					if err := db.Put(op.Key, op.Value); err != nil {
						errCh <- err
						return
					}
				}
				rec.Record(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := db.Metrics()
	cacheAfter := db.BlockCacheStats()
	select {
	case err := <-errCh:
		return Result{}, err
	default:
	}

	snap := after.Sub(before)
	totalOps := perWorker * int64(threads)
	res := Result{
		Name:          spec.Name,
		Threads:       threads,
		Ops:           totalOps,
		Elapsed:       elapsed,
		KOPS:          float64(totalOps) / elapsed.Seconds() / 1000,
		WA:            snap.WriteAmplification(),
		FlushRelWA:    snap.FlushRelativeWA(),
		RA:            snap.ReadAmplification(),
		CompactedMB:   float64(snap.BytesCompacted) / (1 << 20),
		FlushedMB:     float64(snap.BytesFlushed) / (1 << 20),
		LoggedMB:      float64(snap.BytesLogged) / (1 << 20),
		PctCompaction: snap.PercentTimeInCompaction(elapsed),
		PctBackground: 100 * float64(snap.BackgroundTime()) / float64(elapsed),
		Deferred:      snap.CompactionsDeferred,
		FlushSkips:    snap.FlushSkips,
		CacheHits:     cacheAfter.Hits - cacheBefore.Hits,
		CacheMisses:   cacheAfter.Misses - cacheBefore.Misses,
		Snap:          snap,
	}
	if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(lookups)
	}
	res.Lat = rec.Snapshot()
	res.P50 = res.Lat.Quantile(0.50)
	res.P99 = res.Lat.Quantile(0.99)
	res.P999 = res.Lat.Quantile(0.999)
	return res, nil
}

// prepopulate puts PrepopulateFraction of the key space with the mix's
// value size, then returns.
func prepopulate(put func(key, value []byte) error, spec Spec) error {
	if spec.PrepopulateFraction <= 0 {
		return nil
	}
	mix := spec.Mix
	n := uint64(float64(mix.Dist.Keys()) * spec.PrepopulateFraction)
	if n == 0 {
		return nil
	}
	keySize, valSize := mix.KeySize, mix.ValueSize
	if keySize <= 0 {
		keySize = 8
	}
	if valSize <= 0 {
		valSize = 255
	}
	val := make([]byte, valSize)
	rng := rand.New(rand.NewSource(spec.Seed))
	rng.Read(val)
	key := make([]byte, keySize)
	for i := uint64(0); i < n; i++ {
		workload.EncodeKey(key, i)
		if err := put(key, val); err != nil {
			return err
		}
	}
	// Give the background a chance before the timed phase.
	runtime.Gosched()
	return nil
}
