// Package triad is a log-structured merge-tree (LSM) key-value store
// implementing TRIAD (Balmau et al., USENIX ATC 2017): three synergistic
// techniques that cut the background I/O of flushing and compaction —
//
//   - TRIAD-MEM keeps frequently-updated (hot) keys in memory across
//     flushes so they stop generating duplicate versions on disk;
//   - TRIAD-DISK defers L0→L1 compaction until the HyperLogLog-estimated
//     key overlap among L0 files makes the merge worthwhile;
//   - TRIAD-LOG adopts the commit log as an L0 table (CL-SSTable) so a
//     flush writes only a small sorted offset index instead of re-writing
//     every key and value.
//
// The same engine with all techniques disabled behaves like the paper's
// RocksDB baseline, which is what the benchmark harness compares against.
//
// DB, Snapshot and Iterator are the store's own types (internal/shard's
// DB and Snapshot, internal/lsm's Iterator), re-exported as aliases rather
// than wrapped: the *DB that Open returns is the same value the network
// server fronts.
//
// Basic usage:
//
//	db, err := triad.Open(triad.Options{FS: vfs.NewMemFS(), Profile: triad.ProfileTriad})
//	...
//	err = db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//	err = db.Close()
package triad

import (
	"errors"

	"repro/internal/lsm"
	"repro/internal/shard"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// Profile selects a pre-tuned engine configuration.
type Profile int

const (
	// ProfileTriad enables all three TRIAD techniques with the paper's
	// parameters (overlap threshold 0.4, max 6 L0 files); hot keys are
	// those updated more often than the memtable's mean (lsm.Options.TriadMem).
	ProfileTriad Profile = iota
	// ProfileBaseline is the RocksDB-like leveled-compaction baseline.
	ProfileBaseline
)

// Options configures Open. Zero-valued fields take the profile defaults;
// Advanced overrides everything when non-nil.
//
// Every store is the sharded store (internal/shard): FS opens it as one
// shard rooted at that filesystem, ShardFS as Shards shards.
type Options struct {
	// FS is where a one-shard store lives: its files, STORE record
	// included, sit at the root of FS. Use vfs.NewMemFS() for an
	// ephemeral store or vfs.NewOSFS(dir) for a durable one. Required
	// unless ShardFS (or Advanced.FS) is set.
	FS vfs.FS
	// Profile picks the baseline or TRIAD configuration.
	Profile Profile
	// BlockCacheBytes, when > 0, is the STORE-WIDE data-block cache
	// budget: one lock-striped, scan-resistant cache shared by all shards
	// (not a per-shard slice), so cache memory follows whichever shards
	// are hot. 0 disables caching.
	BlockCacheBytes int64
	// SyncWAL syncs the commit log on every write.
	SyncWAL bool
	// Shards, when > 1, hash-partitions the keyspace across that many
	// independent engine instances — each with its own commit log,
	// memtable, levels and background workers — multiplying the write
	// paths for concurrent workloads. ShardFS must then be set (FS is
	// ignored); the engine's memtable and commit-log budgets apply to each
	// shard. The shard count must be stable across opens of the same store.
	Shards int
	// ShardFS supplies shard i's filesystem. Use ShardMemFS() for an
	// ephemeral store or ShardDirs(dir) to root each shard in its own
	// subdirectory of dir. The persisted store metadata is validated on
	// every open: reopening with a shard count different from creation
	// returns an error instead of silently misrouting keys, and so do
	// opening the root of a ShardDirs store through FS and opening a store
	// an older build created range-partitioned.
	ShardFS func(i int) (vfs.FS, error)
	// BackgroundWorkers sizes the store's background worker pool: one
	// bounded pool runs every shard's flushes and compactions, each one
	// task, flushes first and otherwise in submission order; a shard has
	// at most one flush and one compaction in it at a time. 0 sizes it
	// min(GOMAXPROCS, shards+2) with a floor of 2; negative is an error.
	BackgroundWorkers int
	// Advanced, when non-nil, is the per-shard engine template, used
	// verbatim (its FS, when set, stands in for Options.FS) except for
	// what the store supplies: the background pool and the block cache.
	// Its BlockCacheBytes is the store-wide budget, as BlockCacheBytes is.
	Advanced *lsm.Options
}

// ShardMemFS returns a ShardFS factory of fresh in-memory filesystems.
func ShardMemFS() func(int) (vfs.FS, error) { return shard.MemFS() }

// ShardDirs returns a ShardFS factory rooting shard i at dir/shard-NNN.
func ShardDirs(dir string) func(int) (vfs.FS, error) { return shard.DirFS(dir) }

// DB is the store: internal/shard's DB, re-exported. Every method is
// safe for concurrent use; see Open.
type DB = shard.DB

// Snapshot is a pinned, point-in-time read view of the whole store; see
// DB.NewSnapshot. Reads on it never observe later writes; on a sharded
// store the view is pinned at one epoch of the store-wide commit clock,
// so a cross-shard Apply batch is either entirely visible or entirely
// invisible, and concurrent conflicting batches appear in their
// serialized epoch order. A snapshot pins memory and on-disk files
// until Close.
type Snapshot = shard.Snapshot

// Iterator is an ascending, streaming point-in-time scan; see
// DB.NewIterator and Snapshot.NewIterator. Entries are produced lazily
// (nothing is materialized at creation); Close releases the underlying
// snapshot pin and must be called.
//
// Usage: for it.Next() { it.Key(), it.Value() }; check Err, then Close.
type Iterator = lsm.Iterator

// ErrNotFound is returned by Get for absent or deleted keys.
var ErrNotFound = lsm.ErrNotFound

// ErrSnapshotClosed is returned by reads on a Snapshot after Close.
var ErrSnapshotClosed = lsm.ErrSnapshotClosed

// Batch is a set of writes applied atomically with DB.Apply.
type Batch = lsm.Batch

// BlockCacheStats re-exports the cache counter type for callers of
// DB.BlockCacheStats.
type BlockCacheStats = sstable.CacheStats

// Open opens or creates a store. An existing store recovers its tree from
// the manifest and replays the commit log, each shard independently.
func Open(o Options) (*DB, error) {
	var opts lsm.Options
	if o.Advanced != nil {
		opts = *o.Advanced
	} else {
		switch o.Profile {
		case ProfileBaseline:
			opts = lsm.DefaultOptions(nil)
		default:
			opts = lsm.TriadOptions(nil)
		}
		if o.BlockCacheBytes > 0 {
			opts.BlockCacheBytes = o.BlockCacheBytes
		}
		opts.SyncWAL = o.SyncWAL
	}
	newFS := o.ShardFS
	if newFS == nil {
		if o.Shards > 1 {
			return nil, errors.New("triad: Shards > 1 requires ShardFS (use ShardMemFS or ShardDirs)")
		}
		fs := opts.FS
		if fs == nil {
			fs = o.FS
		}
		if fs == nil {
			return nil, errors.New("triad: Options.FS (or ShardFS) is required")
		}
		newFS = func(int) (vfs.FS, error) { return fs, nil }
	}
	opts.FS = nil
	// BlockCacheBytes is the store-wide budget B and the shard layer
	// multiplies a per-shard share by the shard count, so each shard's
	// share is ⌈B/n⌉: the cache holds at least B, and a B smaller than n
	// still caches.
	if b := opts.BlockCacheBytes; b > 0 {
		n := int64(max(o.Shards, 1))
		opts.BlockCacheBytes = (b + n - 1) / n
	}
	return shard.Open(shard.Options{
		Shards:            o.Shards,
		Engine:            opts,
		NewFS:             newFS,
		BackgroundWorkers: o.BackgroundWorkers,
	})
}

// EngineOptions is the full engine knob set, re-exported for Advanced
// configuration.
type EngineOptions = lsm.Options

// BaselineEngineOptions returns the baseline knob set for Advanced use.
func BaselineEngineOptions(fs vfs.FS) lsm.Options { return lsm.DefaultOptions(fs) }

// TriadEngineOptions returns the full-TRIAD knob set for Advanced use.
func TriadEngineOptions(fs vfs.FS) lsm.Options { return lsm.TriadOptions(fs) }
