package shard

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bgsched"
	"repro/internal/lsm"
	"repro/internal/manifest"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sstable"
)

// Metrics returns the store-wide counter snapshot: the counter-wise sum
// of every shard's snapshot. Derived quantities (write and read
// amplification) computed on the sum are the aggregate amplifications.
func (db *DB) Metrics() metrics.Snapshot {
	var out metrics.Snapshot
	for _, s := range db.shards {
		out = out.Add(s.Metrics())
	}
	return out
}

// BlockCacheStats reports the store-wide block-cache counters (zero when
// caching is disabled).
func (db *DB) BlockCacheStats() sstable.CacheStats { return db.cache.Stats() }

// NumLevelFiles reports the per-level table count summed across shards.
func (db *DB) NumLevelFiles() []int {
	out := make([]int, manifest.NumLevels)
	for _, s := range db.shards {
		for l, n := range s.NumLevelFiles() {
			out[l] += n
		}
	}
	return out
}

// LevelStats reports the tree shape per level over all shards: files,
// bytes, targets, L0's log ceilings, compacted bytes and the lookup counts
// are sums; Score and L0's Depth are the highest of any shard's, since a
// level is in shape only when it is on every shard and a lookup probes one
// shard.
func (db *DB) LevelStats() []lsm.LevelStat {
	out := make([]lsm.LevelStat, manifest.NumLevels)
	for _, s := range db.shards {
		for l, ls := range s.LevelStats() {
			out[l].Files += ls.Files
			out[l].Bytes += ls.Bytes
			out[l].LogBytes += ls.LogBytes
			out[l].LogCeiling += ls.LogCeiling
			out[l].Target += ls.Target
			out[l].CompactedBytes += ls.CompactedBytes
			out[l].L0Merges += ls.L0Merges
			out[l].Probes += ls.Probes
			out[l].FilterNegatives += ls.FilterNegatives
			out[l].FilterFalsePositives += ls.FilterFalsePositives
			out[l].BlockReads += ls.BlockReads
			out[l].LogReads += ls.LogReads
			out[l].Score = max(out[l].Score, ls.Score)
			out[l].Depth = max(out[l].Depth, ls.Depth)
		}
	}
	return out
}

// ShardStat is one shard's share of the load, for observing imbalance
// between shards: how many writes and bytes the shard absorbed, how much
// disk it holds, and its individual amplifications.
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Writes and WriteBytes are the user Put/Delete operations and
	// key+value bytes routed to this shard.
	Writes, WriteBytes int64
	// Reads counts user Gets routed to this shard.
	Reads int64
	// Files and DiskBytes are the shard's on-disk table count and size,
	// summed over levels.
	Files int
	// DiskBytes is the shard's total on-disk byte size: its tables and the
	// commit logs its L0 CL-SSTables pin.
	DiskBytes int64
	// RetainedLogBytes is the commit log the shard keeps beside its tables
	// because a memtable is still backed by it (lsm.DB.RetainedLogBytes).
	RetainedLogBytes int64
	// UnsyncedLogBytes is the part of the commit log the shard acknowledged
	// that a power cut could still take (lsm.DB.UnsyncedLogBytes).
	UnsyncedLogBytes int64
	// Levels is the shard's tree, level by level: what each level holds,
	// the target the picker currently allows it and the resulting score.
	Levels []lsm.LevelStat
	// CompactionDebt is the shard's pending-compaction byte estimate:
	// L0 at or past its trigger plus each level's excess over target —
	// the backlog the background pool still has to burn down.
	CompactionDebt int64
	// WriteStalls and WriteStallTime total the shard's write-stall
	// episodes and their wall time, the user-facing cost of that debt.
	WriteStalls    int64
	WriteStallTime time.Duration
	// BytesSpilled is the part of the shard's compaction output that L0
	// merges' spills wrote one level below the merge's output level, where
	// the output level had no room (metrics.Metrics.BytesSpilled).
	BytesSpilled int64
	// WA and RA are the shard's own write and read amplification.
	WA, RA float64
	// OverlayEntries is how many replaced versions the shard's memtables
	// keep behind their entries for snapshots right now. The snapshot
	// counts themselves are the store's (DB.OpenSnapshots): every store
	// snapshot pins every shard once.
	OverlayEntries int
	// CacheHits/CacheMisses are the shard's block-cache lookups;
	// CacheBytes is how many cache bytes the shard holds resident right
	// now. Under the shared cache the bytes are not pre-split, so this
	// column shows memory following the hot shards.
	CacheHits, CacheMisses int64
	CacheBytes             int64
	// IO attributes the shard's disk bytes by source (user write, WAL,
	// flush, compaction read/write, snapshot-GC reclaim) — the per-shard
	// WA decomposition.
	IO obs.LedgerSnapshot
	// BackgroundError is the shard's first failed flush or compaction
	// (lsm.DB.BackgroundError), which every later write to it returns;
	// nil while its background work succeeds.
	BackgroundError error
}

// ShardStats reports every shard's share of the load, in shard order.
// Under the hash the shares should be near-uniform; a hot key shows as
// one shard's excess, which is what this surface exists to make visible.
func (db *DB) ShardStats() []ShardStat {
	out := make([]ShardStat, len(db.shards))
	for i, s := range db.shards {
		m := s.Metrics()
		cs := s.BlockCacheStats()
		st := ShardStat{
			Shard:           i,
			Writes:          m.UserWrites,
			WriteBytes:      m.UserBytes,
			Reads:           m.UserReads,
			CompactionDebt:  s.CompactionDebt(),
			WriteStalls:     m.WriteStalls,
			WriteStallTime:  m.WriteStallTime,
			BytesSpilled:    m.BytesSpilled,
			WA:              m.WriteAmplification(),
			RA:              m.ReadAmplification(),
			OverlayEntries:  s.OverlaySize(),
			CacheHits:       cs.Hits,
			CacheMisses:     cs.Misses,
			CacheBytes:      cs.Resident,
			Levels:          s.LevelStats(),
			IO:              ioBySource(m),
			BackgroundError: s.BackgroundError(),
		}
		st.RetainedLogBytes = s.RetainedLogBytes()
		st.UnsyncedLogBytes = s.UnsyncedLogBytes()
		for _, ls := range st.Levels {
			st.Files += ls.Files
			st.DiskBytes += ls.Bytes
		}
		out[i] = st
	}
	return out
}

// Stats renders the aggregate tree shape and counters plus a per-shard
// balance table, in the spirit of RocksDB's GetProperty("rocksdb.stats").
func (db *DB) Stats() string {
	var b strings.Builder
	m := db.Metrics()

	fmt.Fprintf(&b, "shards: %d (%s partitioner)\n", len(db.shards), fnvName)
	fmt.Fprintf(&b, "levels (all shards: files (L0: deepest shard's read depth)/bytes, target, highest shard score, bytes compacted out of the level):\n")
	levels := db.LevelStats()
	for l, ls := range levels {
		if ls.Files == 0 && ls.CompactedBytes == 0 {
			continue
		}
		fmt.Fprintf(&b, "  L%d: %s\n", l, ls)
	}
	fmt.Fprintf(&b, "gets by level (all shards: tables probed, of them turned away by the filter or passed by it for an absent key, disk reads charged):\n")
	for l, ls := range levels {
		if ls.Probes == 0 {
			continue
		}
		fmt.Fprintf(&b, "  L%d: %d probes, %d filter negatives, %d false positives, %d block reads, %d log reads\n",
			l, ls.Probes, ls.FilterNegatives, ls.FilterFalsePositives, ls.BlockReads, ls.LogReads)
	}
	fmt.Fprintf(&b, "flushes: %d (skipped: %d)  compactions: %d (deferred: %d, trivial moves: %d)\n",
		m.Flushes, m.FlushSkips, m.Compactions, m.CompactionsDeferred, m.TrivialMoves)
	fmt.Fprintf(&b, "L0 jobs by rule: L0 folds: %d, merges: rent paid %d, log ceiling %d, drain %d\n",
		m.Folds, m.MergesRentPaid, m.MergesLogCeiling, m.MergesDrain)
	b.WriteString("L0 merges by output level:")
	for l := 1; l < len(levels); l++ {
		if n := levels[l].L0Merges; n > 0 || l == 1 {
			fmt.Fprintf(&b, " L%d %d", l, n)
		}
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "bytes: user %d  logged %d (relogged %d)  flushed %d  folded %d  compacted %d (spilled below the output level %d)\n",
		m.UserBytes, m.BytesLogged, m.BytesRelogged, m.BytesFlushed, m.BytesFolded, m.BytesCompacted, m.BytesSpilled)
	fmt.Fprintf(&b, "WA: %.2f (flush-relative %.2f)  RA: %.2f\n",
		m.WriteAmplification(), m.FlushRelativeWA(), m.ReadAmplification())
	fmt.Fprintf(&b, "compaction debt: %d bytes  write stalls: %d (%s total)\n",
		db.CompactionDebt(), m.WriteStalls, m.WriteStallTime)
	ps := db.sched.Stats()
	fmt.Fprintf(&b, "background pool: %d workers (%d busy), queued", ps.Workers, ps.Busy)
	for c := 0; c < bgsched.NumClasses; c++ {
		fmt.Fprintf(&b, " %s=%d", bgsched.Class(c), ps.Queued[c])
	}
	fmt.Fprintf(&b, ", %d tasks completed\n", ps.Completed)
	if io := db.IOBySource(); io[obs.SrcUser] > 0 {
		ub := float64(io[obs.SrcUser])
		fmt.Fprintf(&b, "WA decomposition (per user byte): wal %.2f + flush %.2f + fold %.2f + compaction %.2f  [compaction read %d B, snapshot-gc reclaimed %d B]\n",
			float64(io[obs.SrcWAL])/ub, float64(io[obs.SrcFlush])/ub, float64(io[obs.SrcFold])/ub, float64(io[obs.SrcCompactionWrite])/ub,
			io[obs.SrcCompactionRead], io[obs.SrcSnapshotGC])
	}
	if cs := db.BlockCacheStats(); cs.Hits+cs.Misses > 0 || cs.Capacity > 0 {
		fmt.Fprintf(&b, "block cache: %d hits, %d misses (%.1f%% hit rate)  %d/%d B resident  %d evictions, %d scan rejects\n",
			cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Resident, cs.Capacity, cs.Evictions, cs.AdmissionRejects)
	}
	fmt.Fprintf(&b, "commit epoch: %d  snapshots: %d open, %d leaked  overlay: %d entries\n",
		db.CommittedEpoch(), db.OpenSnapshots(), db.LeakedSnapshots(), db.OverlayEntries())
	if lat := db.applyLat; lat.Count() > 0 {
		h := lat.Snapshot()
		fmt.Fprintf(&b, "apply latency: n=%d p50=%s p90=%s p99=%s p99.9=%s max=%s\n",
			h.Count(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.Max())
	}
	fmt.Fprintf(&b, "per-shard balance (writes/reads/files/disk/retained logs, of them unsynced, WA, RA, debt, stalls, overlay, cache):\n")
	shards := db.ShardStats()
	for _, st := range shards {
		fmt.Fprintf(&b, "  s%d: writes=%d (%d B) reads=%d files=%d disk=%d B logs=%d B (unsynced %d B)  WA=%.2f RA=%.2f  debt=%d B  stalls=%d (%s)  overlay=%d  cache=%d/%d hits (%d B)\n",
			st.Shard, st.Writes, st.WriteBytes, st.Reads, st.Files, st.DiskBytes, st.RetainedLogBytes, st.UnsyncedLogBytes, st.WA, st.RA,
			st.CompactionDebt, st.WriteStalls, st.WriteStallTime,
			st.OverlayEntries, st.CacheHits, st.CacheHits+st.CacheMisses, st.CacheBytes)
		if st.BackgroundError != nil {
			fmt.Fprintf(&b, "  s%d: background error (writes fail until reopened): %v\n", st.Shard, st.BackgroundError)
		}
	}
	if levels[0].LogCeiling > 0 {
		fmt.Fprintf(&b, "L0 commit log per shard (pinned of the ceiling at which L0 merges whatever its rent):\n")
		for _, st := range shards {
			fmt.Fprintf(&b, "  s%d: L0 pins %.2f of %.2f MiB of log\n",
				st.Shard, float64(st.Levels[0].LogBytes)/(1<<20), float64(st.Levels[0].LogCeiling)/(1<<20))
		}
	}
	if ev := db.events; ev.Total() > 0 {
		fmt.Fprintf(&b, "background events: %d total, newest first:\n", ev.Total())
		for _, e := range ev.Events(5) {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	return b.String()
}

// CompactionDebt sums every shard's pending-compaction byte estimate —
// the store-wide backlog the background pool is draining.
func (db *DB) CompactionDebt() int64 {
	var n int64
	for _, s := range db.shards {
		n += s.CompactionDebt()
	}
	return n
}

// IOBySource reports the store-wide I/O attribution, read from the
// engine counters every shard keeps anyway.
func (db *DB) IOBySource() obs.LedgerSnapshot { return ioBySource(db.Metrics()) }

// ioBySource attributes a counter snapshot's disk bytes by source.
func ioBySource(m metrics.Snapshot) obs.LedgerSnapshot {
	return obs.LedgerSnapshot{
		obs.SrcUser:            m.UserBytes,
		obs.SrcWAL:             m.BytesLogged,
		obs.SrcFlush:           m.BytesFlushed,
		obs.SrcFold:            m.BytesFolded,
		obs.SrcCompactionRead:  m.BytesCompactionRead,
		obs.SrcCompactionWrite: m.BytesCompacted,
		obs.SrcSnapshotGC:      m.BytesSnapshotGC,
	}
}

// OverlayEntries reports, summed across shards, how many replaced
// versions the memtables keep behind their entries for snapshots.
func (db *DB) OverlayEntries() int {
	n := 0
	for _, s := range db.shards {
		n += s.OverlaySize()
	}
	return n
}
