// Package harness runs evaluation workloads against the engine and
// collects the paper's metrics (§5.1): throughput in KOPS, bytes written
// to disk by origin, time spent in background operations, write
// amplification and read amplification.
//
// A Spec describes one run (engine configuration + workload + thread
// count); Run executes it on a fresh in-memory filesystem: pre-populate,
// settle the tree, then drive the timed operation phase from N workers.
package harness

import (
	"fmt"
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

// Engine is the key-value surface Run drives. Both *lsm.DB and
// *shard.DB implement it, so every experiment can execute against a
// single instance or a sharded store unchanged.
type Engine interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	Flush() error
	CompactAll() error
	SetDisableBackgroundIO(bool)
	Metrics() metrics.Snapshot
	CacheStats() (hits, misses int64)
	Close() error
}

var (
	_ Engine = (*lsm.DB)(nil)
	_ Engine = (*shard.DB)(nil)
)

// Spec describes one experiment run.
type Spec struct {
	// Name labels the run in tables.
	Name string
	// Engine is the engine configuration; FS is overwritten by Run.
	Engine lsm.Options
	// Shards, when > 1, runs the spec against a sharded engine of that
	// many lsm instances. Engine's budgets apply to each shard (the
	// column-family deployment convention: every shard is a full engine);
	// pass shard.DivideBudgets(engine, n) as Engine to compare shard
	// counts at equal aggregate memory instead.
	Shards int
	// DevicePerShard gives each shard its own simulated device when
	// Latency.Device is set (the scale-out deployment: one disk per
	// shard). Default false: all shards contend on the one device.
	DevicePerShard bool
	// Partitioner selects the shard router when Shards > 1: "" or
	// "hash" routes by FNV, "range" slices the synthetic EncodeKey
	// keyspace into Shards equal contiguous ranges (EvenRangeSplits),
	// so the same workload can be compared under both routings at
	// identical budgets.
	Partitioner string
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

// Run executes one spec on fresh MemFS instances (one per shard). All
// shards share the spec's latency model; when it names a Device, the
// shards contend on that one simulated device by default, and each gets
// its own device when DevicePerShard is set (the one-disk-per-shard
// scale-out deployment).
func Run(spec Spec) (Result, error) {
	db, err := openEngine(spec)
	if err != nil {
		return Result{}, err
	}
	defer db.Close()

	if err := prepopulate(db, spec); err != nil {
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
		db.SetDisableBackgroundIO(true)
	}

	threads := spec.Threads
	if threads <= 0 {
		threads = 1
	}
	before := db.Metrics()
	hitsBefore, missesBefore := db.CacheStats()
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
	hitsAfter, missesAfter := db.CacheStats()
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
		CacheHits:     hitsAfter - hitsBefore,
		CacheMisses:   missesAfter - missesBefore,
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

// openEngine opens the spec's engine — sharded or single-instance — on
// fresh MemFS instances.
func openEngine(spec Spec) (Engine, error) {
	opts := spec.Engine
	opts.Seed = spec.Seed
	if spec.Shards <= 1 {
		fs := vfs.NewMemFS()
		fs.Latency = spec.Latency
		opts.FS = fs
		return lsm.Open(opts)
	}
	part, err := spec.partitioner()
	if err != nil {
		return nil, err
	}
	return shard.Open(shard.Options{
		Shards:      spec.Shards,
		Engine:      opts,
		Partitioner: part,
		NewFS: func(int) (vfs.FS, error) {
			fs := vfs.NewMemFS()
			lat := spec.Latency
			if spec.DevicePerShard && lat.Device != nil {
				lat.Device = &vfs.Device{}
			}
			fs.Latency = lat
			return fs, nil
		},
	})
}

// partitioner maps Spec.Partitioner onto a shard-layer partitioner.
func (spec Spec) partitioner() (shard.Partitioner, error) {
	switch spec.Partitioner {
	case "", "hash":
		return nil, nil
	case "range":
		keySize := spec.Mix.KeySize
		if keySize <= 0 {
			keySize = 8
		}
		return shard.NewRange(EvenRangeSplits(spec.Mix.Dist.Keys(), keySize, spec.Shards)...)
	default:
		return nil, fmt.Errorf("harness: unknown partitioner %q (want \"hash\" or \"range\")", spec.Partitioner)
	}
}

// EvenRangeSplits returns the shards-1 split keys that divide the
// synthetic EncodeKey keyspace [0, keys) into equal contiguous slices —
// the range-partitioner configuration under which the synthetic
// workloads are balanced, so hash-vs-range comparisons isolate scan
// locality rather than skew.
func EvenRangeSplits(keys uint64, keySize, shards int) [][]byte {
	splits := make([][]byte, 0, shards-1)
	for i := 1; i < shards; i++ {
		k := make([]byte, keySize)
		workload.EncodeKey(k, keys*uint64(i)/uint64(shards))
		splits = append(splits, k)
	}
	return splits
}

// prepopulate inserts PrepopulateFraction of the key space with the mix's
// value size, then returns.
func prepopulate(db Engine, spec Spec) error {
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
		if err := db.Put(key, val); err != nil {
			return err
		}
	}
	// Give the background a chance before the timed phase.
	runtime.Gosched()
	return nil
}

// FormatKOPS renders a throughput for tables.
func FormatKOPS(k float64) string { return fmt.Sprintf("%.1f", k) }
