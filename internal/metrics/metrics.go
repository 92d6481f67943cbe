// Package metrics collects the evaluation metrics of the paper (§5.1):
// throughput is measured by the harness; this package tracks the I/O-side
// quantities — bytes flushed / compacted / logged, user bytes, disk reads
// per Get, background wall time — from which write amplification (WA),
// read amplification (RA) and %-time-in-compaction are derived.
package metrics

import (
	"reflect"
	"sync/atomic"
	"time"
)

// Metrics is a set of cumulative counters. All methods are safe for
// concurrent use. The zero value is ready. Its fields are Snapshot's, by
// name and in order (TestMetricsMirrorSnapshot); a duration counts
// nanoseconds.
type Metrics struct {
	// User-side.
	UserWrites     atomic.Int64 // Put/Delete operations
	UserReads      atomic.Int64 // Get operations
	UserBytes      atomic.Int64 // key+value bytes written by the application
	ReadsFromMem   atomic.Int64 // Gets answered by a memtable
	TableDiskReads atomic.Int64 // data-block/log reads performed by Gets

	// Storage-side writes, by origin.
	BytesLogged    atomic.Int64 // commit-log appends, the engine's own included
	BytesFlushed   atomic.Int64 // flush output (SSTables, or CL indexes under TRIAD-LOG)
	BytesCompacted atomic.Int64 // compaction output
	BytesRelogged  atomic.Int64 // of BytesLogged, not a user's commit: carried by a log rotation or a flush, or a flush's hot write-back
	BytesSpilled   atomic.Int64 // of BytesCompacted, what L0 merges' spills wrote one level below the merge's output level
	BytesFolded    atomic.Int64 // fold output: the CL indexes L0's CL-SSTables were folded into

	// Storage-side reads and reclaims.
	BytesCompactionRead atomic.Int64 // compaction input
	BytesSnapshotGC     atomic.Int64 // zombie tables deleted once no snapshot pins them

	// Background operation counts and wall time.
	Flushes             atomic.Int64
	FlushSkips          atomic.Int64 // TRIAD-MEM FLUSH_TH small-memtable skips
	Compactions         atomic.Int64
	CompactionsDeferred atomic.Int64 // TRIAD-DISK deferrals
	Folds               atomic.Int64 // L0 folded into one CL-SSTable instead of merged

	// L0 merges where L0 can fold, by the rule that merged it instead of
	// folding it (compaction.RuleRentPaid, RuleLogCeiling, RuleDrain);
	// Folds counts the fourth rule, RuleFold.
	MergesRentPaid, MergesLogCeiling, MergesDrain atomic.Int64

	TrivialMoves       atomic.Int64 // zero-overlap files relinked a level down, not rewritten
	FlushTime          atomic.Int64
	CompactionTime     atomic.Int64 // compaction-path wall time, folds included
	EntriesCompacted   atomic.Int64 // entries consumed by compaction merges
	EntriesDiscarded   atomic.Int64 // of those, dropped: shadowed versions, hot-key skips, dead tombstones
	HotKeysKeptInMem   atomic.Int64 // TRIAD-MEM hot survivors across flushes
	ColdEntriesFlushed atomic.Int64

	// Write-stall accounting: how often writers blocked on backpressure
	// (flush queue full or L0 at its stop-writes trigger) and for how
	// long in total — the user-visible cost of background-I/O debt.
	WriteStalls    atomic.Int64
	WriteStallTime atomic.Int64
}

// Snapshot is a point-in-time copy with derived metrics.
type Snapshot struct {
	UserWrites, UserReads, UserBytes          int64
	ReadsFromMem, TableDiskReads              int64
	BytesLogged, BytesFlushed, BytesCompacted int64
	BytesRelogged, BytesSpilled, BytesFolded  int64
	BytesCompactionRead, BytesSnapshotGC      int64
	Flushes, FlushSkips                       int64
	Compactions, CompactionsDeferred, Folds   int64
	MergesRentPaid, MergesLogCeiling          int64
	MergesDrain, TrivialMoves                 int64
	FlushTime, CompactionTime                 time.Duration
	EntriesCompacted, EntriesDiscarded        int64
	HotKeysKeptInMem, ColdEntriesFlushed      int64
	WriteStalls                               int64
	WriteStallTime                            time.Duration
}

// Snapshot captures the current counters.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	mv, sv := reflect.ValueOf(m).Elem(), reflect.ValueOf(&s).Elem()
	for i := range sv.NumField() {
		sv.Field(i).SetInt(mv.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	return s
}

// Sub returns s - earlier, counter-wise (for measuring a window).
func (s Snapshot) Sub(earlier Snapshot) Snapshot { return s.plus(earlier, -1) }

// Add returns s + other, counter-wise — the roll-up used to aggregate
// per-shard snapshots into one store-wide view.
func (s Snapshot) Add(other Snapshot) Snapshot { return s.plus(other, 1) }

// plus returns s + sign·o, counter-wise.
func (s Snapshot) plus(o Snapshot, sign int64) Snapshot {
	sv, ov := reflect.ValueOf(&s).Elem(), reflect.ValueOf(o)
	for i := range sv.NumField() {
		sv.Field(i).SetInt(sv.Field(i).Int() + sign*ov.Field(i).Int())
	}
	return s
}

// WriteAmplification is the system-wide WA: every byte the store wrote
// (log + flush + fold + compaction) per user byte. This is the
// conventional whole-system definition; it subsumes the paper's
// flush-relative formula and produces the same orderings.
func (s Snapshot) WriteAmplification() float64 {
	if s.UserBytes == 0 {
		return 0
	}
	return float64(s.BytesLogged+s.BytesFlushed+s.BytesFolded+s.BytesCompacted) / float64(s.UserBytes)
}

// FlushRelativeWA is the paper's §5.1 formula,
// (Bytes_flushed + Bytes_compacted) / Bytes_flushed, with the bytes of
// folds — which the paper does not have — counted as compacted.
func (s Snapshot) FlushRelativeWA() float64 {
	if s.BytesFlushed == 0 {
		return 0
	}
	return float64(s.BytesFlushed+s.BytesFolded+s.BytesCompacted) / float64(s.BytesFlushed)
}

// ReadAmplification is the average number of disk accesses per Get.
func (s Snapshot) ReadAmplification() float64 {
	if s.UserReads == 0 {
		return 0
	}
	return float64(s.TableDiskReads) / float64(s.UserReads)
}

// BackgroundTime is total flush + compaction wall time.
func (s Snapshot) BackgroundTime() time.Duration { return s.FlushTime + s.CompactionTime }

// PercentTimeInCompaction reports compaction time as a percentage of
// elapsed (one background worker, so directly comparable to the paper's
// per-run percentage).
func (s Snapshot) PercentTimeInCompaction(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(s.CompactionTime) / float64(elapsed)
}
