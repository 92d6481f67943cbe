package lsm

import (
	"repro/internal/bgsched"
	"repro/internal/compaction"
	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// Writers wait on two constants, not options.
const (
	// l0StallFiles stops writes while L0's pressure — its file count, or
	// where L0 can fold its read depth (compaction.Picker.L0Pressure) — is
	// at least this (RocksDB's level0_stop_writes_trigger, at LevelDB's
	// value): the backpressure that makes user throughput feel compaction
	// debt (paper §3's bottleneck). It exceeds compaction.MaxFilesL0 so
	// that TRIAD-DISK can still defer (TestEngineConstants).
	l0StallFiles = 12
	// maxImmutableMemtables bounds the flush queue; writers stall beyond it
	// (RocksDB's write-stall behaviour).
	maxImmutableMemtables = 2
)

// Options configures a DB. The zero value is not usable; start from
// DefaultOptions (the RocksDB-like baseline) or TriadOptions (all three
// techniques on, with the paper's parameters: overlap threshold 0.4, max 6
// L0 files; hot keys are those updated more often than the memtable's
// mean; see TriadOptions for where the engine goes past the paper).
type Options struct {
	// FS is the filesystem; required.
	FS vfs.FS

	// MemtableBytes caps the memory component Cm; a flush is scheduled
	// when it fills (paper §2: "a few MBs to tens of MBs"; the synthetic
	// evaluation uses 4 MB).
	MemtableBytes int64
	// CommitLogBytes caps the commit log; exceeding it also triggers a
	// flush even when the memtable has room (paper §2-§3 — the trigger
	// data skew abuses).
	CommitLogBytes int64
	// SyncWAL forces a sync per append (off in the experiments, as in
	// the paper's batched logging).
	SyncWAL bool

	// TriadMem enables hot/cold key separation at flush (§4.1): entries
	// updated more often than the memtable's mean stay in memory and only
	// the cold part — the rest — reaches L0.
	TriadMem bool
	// TriadDisk enables HLL-based deferred L0 compaction (§4.2).
	TriadDisk bool
	// TriadLog enables CL-SSTable index-only flushes (§4.3).
	TriadLog bool

	// FlushThresholdBytes is FLUSH_TH: when the commit log fills while the
	// memtable's cold part — what a flush would write to L0 — is smaller
	// than this, TRIAD-MEM skips the flush and starts a fresh commit log
	// instead (Algorithm 1), keeping the full one until the next skip and
	// carrying over only what still needs the one before it — provided
	// that leaves at least half of CommitLogBytes free.
	FlushThresholdBytes int64

	// BaseLevelBytes is the L1 size target, the only level whose target
	// is a constant: the levels between L1 and the deepest non-empty
	// level are sized from that level's actual bytes, by equal fan-out
	// (compaction.Picker.Targets), so they never hold more than the
	// bottom level's size calls for.
	BaseLevelBytes int64
	// TargetFileBytes caps each compaction output file.
	TargetFileBytes int64
	// BlockBytes is the SSTable data-block size.
	BlockBytes int

	// BlockCacheBytes is this engine's share of the data-block cache:
	// shard.Open builds one store-wide cache of BlockCacheBytes x Shards
	// and hands it to every shard as BlockCache. Open itself builds no
	// cache and reads only BlockCache. Cache hits do not count as disk
	// accesses for read amplification, matching the substrate's
	// block-cache behaviour.
	BlockCacheBytes int64
	// BlockCache is the cache shared with other engines; nil caches
	// nothing. The DB takes a tenant handle on it and releases only its
	// own blocks at Close; the caller keeps ownership of the cache itself.
	BlockCache *sstable.Cache

	// Scheduler is the worker pool the engine's background work runs on;
	// required. Flushes and compaction rounds are submitted by priority
	// class (flush > L0→L1 > deeper levels), at most one of each in the
	// pool at a time; a compaction is one merge on one worker. The
	// caller owns the pool: Close cancels the engine's queued tasks and
	// waits out its running ones, but leaves the pool open. shard.Open
	// builds one store-wide pool so N shards' background I/O is centrally
	// arbitrated.
	Scheduler *bgsched.Pool

	// DisableAutoCompaction leaves compaction to explicit CompactOnce /
	// CompactAll calls (used by tests).
	DisableAutoCompaction bool

	// Seed drives memtable skiplist randomness.
	Seed int64

	// Events, when non-nil, receives a structured entry for every
	// background operation (flush, compaction, snapshot zombie-GC, write
	// stall). EventShard labels them; sharded stores pass each shard's
	// index so a merged journal stays attributable.
	Events *obs.Journal
	// EventShard is the shard index stamped on emitted events.
	EventShard int
}

// DefaultOptions returns the baseline engine configuration ("RocksDB" in
// the figures): leveled compaction, classic flushes, no TRIAD techniques.
func DefaultOptions(fs vfs.FS) Options {
	return Options{
		FS:                  fs,
		MemtableBytes:       4 << 20,
		CommitLogBytes:      16 << 20,
		FlushThresholdBytes: 2 << 20,
		BaseLevelBytes:      8 << 20,
		TargetFileBytes:     2 << 20,
		BlockBytes:          4 << 10,
	}
}

// TriadOptions returns the full-TRIAD configuration with the paper's
// parameters (§5.1). Where TRIAD-DISK and TRIAD-LOG meet, the engine goes
// past the paper: an L0 that TRIAD-DISK would merge into L1 is folded —
// the indexes of its newest run of CL-SSTables merged into one CL-SSTable
// over all of their commit logs, no value read or rewritten — until the
// index bytes the folds wrote reach the L1 and L2 bytes a merge would
// rewrite, or L0 pins its log ceiling (compaction.Picker.L0LogCeiling);
// each L1 rewrite so takes in a larger batch of L0 than MaxFilesL0
// flushes.
func TriadOptions(fs vfs.FS) Options {
	o := DefaultOptions(fs)
	o.TriadMem = true
	o.TriadDisk = true
	o.TriadLog = true
	return o
}

func (o *Options) withDefaults() {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.CommitLogBytes <= 0 {
		o.CommitLogBytes = 4 * o.MemtableBytes
	}
	if o.FlushThresholdBytes <= 0 {
		o.FlushThresholdBytes = o.MemtableBytes / 2
	}
	if o.BaseLevelBytes <= 0 {
		o.BaseLevelBytes = 8 << 20
	}
	if o.TargetFileBytes <= 0 {
		o.TargetFileBytes = 2 << 20
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 4 << 10
	}
}

func (o Options) pickerOptions() compaction.PickerOptions {
	return compaction.PickerOptions{
		BaseLevelBytes: o.BaseLevelBytes,
		TriadDisk:      o.TriadDisk,
		L0LogBytes:     o.l0LogBytes(),
	}
}

// l0LogBytes is the floor of L0's log ceiling where it can fold, which
// takes TRIAD-DISK (to defer) and TRIAD-LOG (for indexes to fold): what
// MaxFilesL0 full CL-SSTables pin. The ceiling rises above it with the
// bytes L0's merge would rewrite (compaction.Picker.L0LogCeiling). Zero, no
// folds, otherwise.
func (o Options) l0LogBytes() int64 {
	if !o.TriadDisk || !o.TriadLog {
		return 0
	}
	return compaction.MaxFilesL0 * o.CommitLogBytes
}
