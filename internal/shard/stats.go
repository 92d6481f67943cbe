package shard

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bgsched"
	"repro/internal/compaction"
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

// BlockCacheStats reports the store-wide block-cache counters, the sum of
// the shards' tenant handles (zero when caching is disabled), as STATS
// and /metrics report them.
func (db *DB) BlockCacheStats() sstable.CacheStats {
	sum := sstable.CacheStats{Capacity: db.cache.Capacity()}
	for _, s := range db.shards {
		sum = sum.Add(s.BlockCacheStats())
	}
	return sum
}

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
	// KeptVersions is how many replaced versions the shard's memtables
	// keep behind their entries for snapshots right now. The snapshot
	// counts themselves are the store's (DB.OpenSnapshots): every store
	// snapshot pins every shard once.
	KeptVersions int
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
func (db *DB) ShardStats() []ShardStat { return db.read().shards }

// report is one read of every shard, from which STATS and the store's
// /metrics series render everything they say about the shards: each shard
// is read once, into its row, and every store-wide number is derived from
// those rows, so that within one rendering each total is the sum of the
// per-shard rows it covers.
type report struct {
	shards []ShardStat
	// m sums the shards' counters, debt their compaction debts and kept
	// their kept versions.
	m    metrics.Snapshot
	debt int64
	kept int
	// levels sums the shards' trees level by level, except that Score and
	// L0's Depth are the highest of any shard's: a level is in shape only
	// when it is on every shard, and a lookup probes one shard.
	levels []lsm.LevelStat
	// cache sums the shards' block-cache handles; its Capacity is the
	// shared budget.
	cache sstable.CacheStats
}

// read gathers the report: per shard, one read each of its counters,
// levels, compaction debt, kept versions (a walk of its memtables),
// cache handle, retained and unsynced log bytes and background error.
func (db *DB) read() report {
	r := report{
		shards: make([]ShardStat, len(db.shards)),
		levels: make([]lsm.LevelStat, manifest.NumLevels),
		cache:  sstable.CacheStats{Capacity: db.cache.Capacity()},
	}
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
			KeptVersions:    s.KeptVersions(),
			CacheHits:       cs.Hits,
			CacheMisses:     cs.Misses,
			CacheBytes:      cs.Resident,
			Levels:          s.LevelStats(),
			IO:              ioBySource(m),
			BackgroundError: s.BackgroundError(),
		}
		st.RetainedLogBytes = s.RetainedLogBytes()
		st.UnsyncedLogBytes = s.UnsyncedLogBytes()
		for l, ls := range st.Levels {
			st.Files += ls.Files
			st.DiskBytes += ls.Bytes
			sum := &r.levels[l]
			sum.Files += ls.Files
			sum.Bytes += ls.Bytes
			sum.LogBytes += ls.LogBytes
			sum.LogCeiling += ls.LogCeiling
			sum.Target += ls.Target
			sum.CompactedBytes += ls.CompactedBytes
			sum.L0Merges += ls.L0Merges
			sum.Probes += ls.Probes
			sum.FilterNegatives += ls.FilterNegatives
			sum.FilterFalsePositives += ls.FilterFalsePositives
			sum.BlockReads += ls.BlockReads
			sum.LogReads += ls.LogReads
			sum.Score = max(sum.Score, ls.Score)
			sum.Depth = max(sum.Depth, ls.Depth)
		}
		r.shards[i] = st
		r.m = r.m.Add(m)
		r.debt += st.CompactionDebt
		r.kept += st.KeptVersions
		r.cache = r.cache.Add(cs)
	}
	return r
}

// Stats renders the aggregate tree shape and counters plus a per-shard
// balance table, in the spirit of RocksDB's GetProperty("rocksdb.stats"),
// from one read of the store.
func (db *DB) Stats() string {
	var b strings.Builder
	r := db.read()
	m, levels := r.m, r.levels

	fmt.Fprintf(&b, "shards: %d (%s partitioner)\n", len(db.shards), fnvName)
	fmt.Fprintf(&b, "levels (all shards: files (L0: deepest shard's read depth)/bytes, target, highest shard score, bytes compacted out of the level):\n")
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
		r.debt, m.WriteStalls, m.WriteStallTime)
	ps := db.sched.Stats()
	fmt.Fprintf(&b, "background %s, %d tasks completed\n", ps, ps.Completed)
	if io := ioBySource(m); io[obs.SrcUser] > 0 {
		ub := float64(io[obs.SrcUser])
		fmt.Fprintf(&b, "WA decomposition (per user byte): wal %.2f + flush %.2f + fold %.2f + compaction %.2f  [compaction read %d B, snapshot-gc reclaimed %d B]\n",
			float64(io[obs.SrcWAL])/ub, float64(io[obs.SrcFlush])/ub, float64(io[obs.SrcFold])/ub, float64(io[obs.SrcCompactionWrite])/ub,
			io[obs.SrcCompactionRead], io[obs.SrcSnapshotGC])
	}
	if cs := r.cache; cs.Hits+cs.Misses > 0 || cs.Capacity > 0 {
		fmt.Fprintf(&b, "block cache: %d hits, %d misses (%.1f%% hit rate)  %d/%d B resident  %d evictions, %d scan rejects\n",
			cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Resident, cs.Capacity, cs.Evictions, cs.AdmissionRejects)
	}
	fmt.Fprintf(&b, "commit epoch: %d  snapshots: %d open, %d leaked  kept versions: %d\n",
		db.LastEpoch(), db.OpenSnapshots(), db.LeakedSnapshots(), r.kept)
	if lat := db.applyLat; lat.Count() > 0 {
		h := lat.Snapshot()
		fmt.Fprintf(&b, "apply latency: n=%d p50=%s p90=%s p99=%s p99.9=%s max=%s\n",
			h.Count(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.Max())
	}
	fmt.Fprintf(&b, "per-shard balance (writes/reads/files/disk/retained logs, of them unsynced, WA, RA, debt, stalls, kept versions, cache):\n")
	for _, st := range r.shards {
		fmt.Fprintf(&b, "  s%d: writes=%d (%d B) reads=%d files=%d disk=%d B logs=%d B (unsynced %d B)  WA=%.2f RA=%.2f  debt=%d B  stalls=%d (%s)  kept=%d  cache=%d/%d hits (%d B)\n",
			st.Shard, st.Writes, st.WriteBytes, st.Reads, st.Files, st.DiskBytes, st.RetainedLogBytes, st.UnsyncedLogBytes, st.WA, st.RA,
			st.CompactionDebt, st.WriteStalls, st.WriteStallTime,
			st.KeptVersions, st.CacheHits, st.CacheHits+st.CacheMisses, st.CacheBytes)
		if st.BackgroundError != nil {
			fmt.Fprintf(&b, "  s%d: background error (writes fail until reopened): %v\n", st.Shard, st.BackgroundError)
		}
	}
	if levels[0].LogCeiling > 0 {
		fmt.Fprintf(&b, "L0 commit log per shard (pinned of the ceiling at which L0 merges whatever its rent):\n")
		for _, st := range r.shards {
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

// WriteMetrics emits the store's /metrics series to p, from one read of
// the store (the same read Stats renders): the counters, derived
// amplifications and background pool, the block cache, per-shard and
// per-level gauges, the I/O attribution ledger, snapshot hygiene, the
// apply latency and the event journal. Every store-wide total is the sum
// of the per-shard series it covers in the same scrape.
func (db *DB) WriteMetrics(p *obs.Prom) {
	r := db.read()
	m := r.m

	p.Counter("triad_user_writes_total", "User Put/Delete operations accepted by the store.", "", m.UserWrites)
	p.Counter("triad_user_reads_total", "User Get operations served by the store.", "", m.UserReads)
	p.Counter("triad_user_bytes_total", "Key+value bytes written by users.", "", m.UserBytes)
	p.Counter("triad_bytes_logged_total", "Bytes appended to commit logs.", "", m.BytesLogged)
	p.Counter("triad_bytes_relogged_total", "Of the bytes logged, those no user commit wrote: entries carried by log rotations and flushes, and hot keys written back.", "", m.BytesRelogged)
	p.Counter("triad_bytes_flushed_total", "Bytes written to L0 by flushes.", "", m.BytesFlushed)
	p.Counter("triad_bytes_folded_total", "CL-SSTable index bytes written by L0 folds.", "", m.BytesFolded)
	p.Counter("triad_bytes_compacted_total", "Bytes written by compactions.", "", m.BytesCompacted)
	p.Counter("triad_flushes_total", "Memtable flushes completed.", "", m.Flushes)
	p.Counter("triad_flush_skips_total", "TRIAD-MEM small-memtable flush skips (commit-log rotations without a flush).", "", m.FlushSkips)
	p.Counter("triad_compactions_total", "Compactions completed.", "", m.Compactions)
	p.Counter("triad_compactions_deferred_total", "TRIAD-DISK compaction deferrals (insufficient key overlap).", "", m.CompactionsDeferred)
	p.Counter("triad_compaction_moves_total", "Files relinked one level down by a manifest edit because nothing there overlapped them.", "", m.TrivialMoves)
	p.Counter("triad_folds_total", "L0 folds: L0's CL-SSTables merged by index into one, instead of into L1.", "", m.Folds)
	l0Jobs := "L0 jobs where L0 can fold, by the rule that chose them: folded, or merged because the folds paid the merge's rent, L0 reached its log ceiling, or a drain."
	p.Counter("triad_l0_jobs_total", l0Jobs, `rule="fold"`, m.Folds)
	p.Counter("triad_l0_jobs_total", l0Jobs, `rule="rent_paid"`, m.MergesRentPaid)
	p.Counter("triad_l0_jobs_total", l0Jobs, `rule="log_ceiling"`, m.MergesLogCeiling)
	p.Counter("triad_l0_jobs_total", l0Jobs, `rule="drain"`, m.MergesDrain)
	p.GaugeF("triad_write_amplification", "Store-wide write amplification: (logged+flushed+folded+compacted)/user bytes.", "", m.WriteAmplification())
	p.GaugeF("triad_read_amplification", "Store-wide read amplification: disk reads per user read.", "", m.ReadAmplification())
	p.Counter("triad_write_stalls_total", "Write-stall episodes: writers blocked on memtable or L0 backpressure.", "", m.WriteStalls)
	p.CounterF("triad_write_stall_seconds_total", "Total wall time writers spent blocked in stalls.", "", m.WriteStallTime.Seconds())
	p.Gauge("triad_compaction_backlog_bytes", "Store-wide pending-compaction byte estimate (L0 at trigger plus per-level excess over target).", "", r.debt)

	bs := db.sched.Stats()
	p.Gauge("triad_bg_workers", "Background pool worker count.", "", int64(bs.Workers))
	p.Gauge("triad_bg_workers_busy", "Background pool workers currently running a task.", "", int64(bs.Busy))
	for c := 0; c < bgsched.NumClasses; c++ {
		p.Gauge("triad_bg_queue_depth", "Tasks queued in the background pool by priority class.",
			fmt.Sprintf("class=%q", bgsched.Class(c)), int64(bs.Queued[c]))
	}
	p.Counter("triad_bg_tasks_completed_total", "Background pool tasks run to completion.", "", bs.Completed)

	cs := r.cache
	p.Counter("triad_block_cache_hits_total", "Block-cache lookups served from memory.", "", cs.Hits)
	p.Counter("triad_block_cache_misses_total", "Block-cache lookups that went to disk.", "", cs.Misses)
	p.Gauge("triad_block_cache_resident_bytes", "Bytes currently resident in the block cache.", "", cs.Resident)
	p.Gauge("triad_block_cache_capacity_bytes", "Configured block-cache capacity.", "", cs.Capacity)
	p.Counter("triad_block_cache_evictions_total", "Blocks evicted to make room.", "", cs.Evictions)
	p.Counter("triad_block_cache_admission_rejects_total", "Blocks the scan-resistant admission policy refused to cache.", "", cs.AdmissionRejects)
	p.GaugeF("triad_block_cache_hit_rate", "Lifetime block-cache hit rate (hits / lookups).", "", cs.HitRate())

	// Each family's samples go together, over every shard (and each
	// shard's levels) in turn: the text format keeps one group per family.
	shardLabels := make([]string, len(r.shards))
	for i, st := range r.shards {
		shardLabels[i] = fmt.Sprintf("shard=%q", strconv.Itoa(st.Shard))
	}
	for _, emit := range []func(st *ShardStat, l string){
		func(st *ShardStat, l string) {
			p.Counter("triad_shard_writes_total", "User write operations routed to the shard.", l, st.Writes)
		},
		func(st *ShardStat, l string) {
			p.Counter("triad_shard_reads_total", "User read operations routed to the shard.", l, st.Reads)
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_shard_disk_bytes", "On-disk bytes held by the shard: its tables and the commit logs its L0 CL-SSTables pin.", l, st.DiskBytes)
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_shard_files", "On-disk table files held by the shard.", l, int64(st.Files))
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_l0_depth", "The shard's L0 read depth: the most L0 tables whose key range holds any one key. Where L0 can fold, its compaction trigger and write stop count this instead of files.", l, int64(st.Levels[0].Depth))
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_l0_log_bytes", "Commit-log bytes the shard's L0 CL-SSTables pin.", l, st.Levels[0].LogBytes)
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_l0_log_ceiling_bytes", l0LogCeilingHelp, l, st.Levels[0].LogCeiling)
		},
		func(st *ShardStat, l string) {
			p.GaugeF("triad_shard_write_amplification", "The shard's own write amplification.", l, st.WA)
		},
		func(st *ShardStat, l string) {
			p.GaugeF("triad_shard_read_amplification", "The shard's own read amplification.", l, st.RA)
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_shard_compaction_backlog_bytes", "The shard's pending-compaction byte estimate.", l, st.CompactionDebt)
		},
		func(st *ShardStat, l string) {
			p.Counter("triad_compaction_spilled_bytes_total", "Of the bytes written by compactions on the shard, those L0 merges' spills wrote one level below the merge's output level because the output level had no room for them.", l, st.BytesSpilled)
		},
		func(st *ShardStat, l string) {
			p.Counter("triad_shard_write_stalls_total", "Write-stall episodes on the shard.", l, st.WriteStalls)
		},
		func(st *ShardStat, l string) {
			p.CounterF("triad_shard_write_stall_seconds_total", "Wall time the shard's writers spent blocked in stalls.", l, st.WriteStallTime.Seconds())
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_shard_unsynced_log_bytes", "Commit-log bytes the shard acknowledged that a power cut could still take: the live log's and each queued memtable's log's size less its length at its last sync.", l, st.UnsyncedLogBytes)
		},
		func(st *ShardStat, l string) {
			bgErr := int64(0)
			if st.BackgroundError != nil {
				bgErr = 1
			}
			p.Gauge("triad_shard_background_error", "1 once a flush or compaction on the shard has failed: its background work has stopped and every write to it fails until the store is reopened; 0 otherwise.", l, bgErr)
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_shard_kept_versions", "Replaced versions the shard's memtables keep for open snapshots; one for a closed snapshot goes with the next overwrite of its key, or with its memtable.", l, int64(st.KeptVersions))
		},
		func(st *ShardStat, l string) {
			p.Counter("triad_shard_cache_hits_total", "Block-cache lookups by this shard served from memory.", l, st.CacheHits)
		},
		func(st *ShardStat, l string) {
			p.Counter("triad_shard_cache_misses_total", "Block-cache lookups by this shard that went to disk.", l, st.CacheMisses)
		},
		func(st *ShardStat, l string) {
			p.Gauge("triad_shard_cache_resident_bytes", "Shared-cache bytes currently held by this shard's blocks.", l, st.CacheBytes)
		},
		func(st *ShardStat, l string) {
			for src := obs.Source(0); src < obs.NumSources; src++ {
				p.Counter("triad_io_bytes_total",
					"Disk bytes attributed by shard and source. user_write is WA's denominator; wal+flush+fold+compaction_write its numerator; compaction_read is merge input, snapshot_gc zombie bytes reclaimed.",
					fmt.Sprintf("%s,source=%q", l, src.String()), st.IO[src])
			}
		},
	} {
		for i := range r.shards {
			emit(&r.shards[i], shardLabels[i])
		}
	}
	getReads := "Disk reads lookups charged on the level, by source: block (a block the cache did not hold) or log (a CL-SSTable value's commit-log record); sums over levels and sources to the reads behind triad_read_amplification."
	for _, emit := range []func(ls *lsm.LevelStat, l string){
		func(ls *lsm.LevelStat, l string) {
			p.Gauge("triad_level_files", "Table files on the level.", l, int64(ls.Files))
		},
		func(ls *lsm.LevelStat, l string) {
			p.Gauge("triad_level_bytes", "Bytes on the level: its tables and, for L0, the commit logs its CL-SSTables pin.", l, ls.Bytes)
		},
		func(ls *lsm.LevelStat, l string) {
			p.Gauge("triad_level_target_bytes", "Byte target the picker currently allows the level, sized from the shard's deepest level (0 for L0, which is triggered by file count, or where it can fold by read depth).", l, ls.Target)
		},
		func(ls *lsm.LevelStat, l string) {
			p.GaugeF("triad_level_score", "Compaction pressure: level bytes over target (L0: files, or where it can fold read depth, over trigger); above 1 the level is owed a compaction.", l, ls.Score)
		},
		func(ls *lsm.LevelStat, l string) {
			p.Counter("triad_level_l0_merges_total", "L0 merges that wrote the level as their output level: L1, or a deeper level where the merge's batch outweighed the bytes under it down to that level.", l, ls.L0Merges)
		},
		func(ls *lsm.LevelStat, l string) {
			p.Counter("triad_level_compacted_bytes_total", "Bytes written by compactions that took their input from the level; sums over levels to triad_bytes_compacted_total.", l, ls.CompactedBytes)
		},
		func(ls *lsm.LevelStat, l string) {
			p.Counter("triad_get_probes_total", "Tables on the level that lookups consulted: in L0 every table whose range holds the key down to the one holding it, one table per deeper level.", l, ls.Probes)
		},
		func(ls *lsm.LevelStat, l string) {
			p.Counter("triad_get_filter_negatives_total", "Of the level's probes, those its Bloom filters turned away without a read.", l, ls.FilterNegatives)
		},
		func(ls *lsm.LevelStat, l string) {
			p.Counter("triad_get_filter_false_positives_total", "Of the level's probes, those its Bloom filters passed for a key the table does not hold; the rest of the probes past the filter found the key.", l, ls.FilterFalsePositives)
		},
		func(ls *lsm.LevelStat, l string) {
			p.Counter("triad_get_reads_total", getReads, l+`,source="block"`, ls.BlockReads)
			p.Counter("triad_get_reads_total", getReads, l+`,source="log"`, ls.LogReads)
		},
	} {
		for i := range r.shards {
			for lvl := range r.shards[i].Levels {
				emit(&r.shards[i].Levels[lvl], fmt.Sprintf("%s,level=%q", shardLabels[i], strconv.Itoa(lvl)))
			}
		}
	}

	p.Gauge("triad_commit_epoch", "Last epoch the store commit clock drew (its batch may still be applying).", "", int64(db.LastEpoch()))
	p.Gauge("triad_snapshots_open", "Live store snapshots, scans' own included: a snapshot counts until its handle and every iterator opened from it are closed or reclaimed.", "", int64(db.OpenSnapshots()))
	p.Counter("triad_snapshots_leaked_total", "Store snapshots the finalizer reclaimed because their handle or an iterator opened from them was dropped without Close.", "", db.LeakedSnapshots())
	p.Gauge("triad_kept_versions", "Replaced versions all memtables keep for open snapshots; one for a closed snapshot goes with the next overwrite of its key, or with its memtable.", "", int64(r.kept))

	p.Histogram("triad_apply_latency_seconds",
		"Store-level batch commit execution latency (ticket wait + WAL append + memtable insert).",
		"", db.applyLat)

	ev := db.events
	p.Counter("triad_events_total", "Background events (flush/compaction/snapshot-gc/stall) ever journaled.", "", int64(ev.Total()))
	p.Counter("triad_journal_dropped_total", "Background events overwritten in the ring before any reader saw them.", "", int64(ev.Dropped()))
}

// l0LogCeilingHelp describes triad_l0_log_ceiling_bytes in the terms of
// compaction.Picker.L0LogCeiling.
var l0LogCeilingHelp = fmt.Sprintf("Where L0 can fold, the commit-log bytes the shard's L0 may pin before it merges whatever its rent: %d full logs, or %d times the bytes its merge would rewrite if more. Zero where L0 cannot fold.",
	compaction.MaxFilesL0, compaction.L0LogPerPriceByte)

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
