package obs

// Source classifies where a disk byte came from: the attribution axis
// of the I/O ledger (LedgerSnapshot). TRIAD's whole design is about
// moving bytes between these buckets (keeping hot keys out of flush,
// embedding the log, deferring compaction), so a per-shard breakdown is
// the live form of the paper's write-amplification argument.
type Source int

// The attribution sources, in exposition order.
const (
	// SrcUser counts the user-visible payload bytes written (the WA
	// denominator).
	SrcUser Source = iota
	// SrcWAL counts commit-log bytes: every Append, including TRIAD-MEM
	// hot-entry write-back and flush-skip log rewrites.
	SrcWAL
	// SrcFlush counts sstable bytes written by memtable flushes.
	SrcFlush
	// SrcFold counts CL-SSTable index bytes written by L0 folds.
	SrcFold
	// SrcCompactionRead counts table bytes read as compaction inputs.
	SrcCompactionRead
	// SrcCompactionWrite counts table bytes written as compaction
	// outputs.
	SrcCompactionWrite
	// SrcSnapshotGC counts zombie-file bytes reclaimed after snapshot
	// release (bytes deleted, not written).
	SrcSnapshotGC
	NumSources
)

// String returns the snake_case source name used as the source label.
func (s Source) String() string {
	switch s {
	case SrcUser:
		return "user_write"
	case SrcWAL:
		return "wal"
	case SrcFlush:
		return "flush"
	case SrcFold:
		return "fold"
	case SrcCompactionRead:
		return "compaction_read"
	case SrcCompactionWrite:
		return "compaction_write"
	case SrcSnapshotGC:
		return "snapshot_gc"
	default:
		return "other"
	}
}

// LedgerSnapshot attributes disk bytes to sources, indexable by Source.
// The sharded store builds it from each shard's engine counters
// (shard.DB.IOBySource, ShardStat.IO), so it is exact, not sampled.
type LedgerSnapshot [NumSources]int64
