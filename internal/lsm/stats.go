package lsm

import (
	"fmt"
	"strings"
)

// String renders the level the way STATS lists it.
func (ls LevelStat) String() string {
	return fmt.Sprintf("%d files, %d bytes, target %d, score %.2f, compacted %d",
		ls.Files, ls.Bytes, ls.Target, ls.Score, ls.CompactedBytes)
}

// Stats renders a human-readable dump of the tree shape and the engine
// counters, in the spirit of RocksDB's GetProperty("rocksdb.stats").
func (db *DB) Stats() string {
	var b strings.Builder
	m := db.Metrics()

	fmt.Fprintf(&b, "levels (files/bytes, target, score, bytes compacted out of the level):\n")
	for l, ls := range db.LevelStats() {
		if ls.Files == 0 && ls.CompactedBytes == 0 {
			continue
		}
		fmt.Fprintf(&b, "  L%d: %s\n", l, ls)
	}
	db.mu.Lock()
	memBytes := db.mem.ApproxSize()
	memLen := db.mem.Len()
	immCount := len(db.imm)
	logBytes := db.log.Size()
	retained := db.retainedLogBytesLocked()
	snapCount := len(db.snaps)
	db.mu.Unlock()
	fmt.Fprintf(&b, "memtable: %d entries, %d bytes (+%d immutable queued)\n", memLen, memBytes, immCount)
	if snapCount > 0 || db.OverlaySize() > 0 {
		fmt.Fprintf(&b, "snapshots: %d open (%d preserved versions)\n", snapCount, db.OverlaySize())
	}
	fmt.Fprintf(&b, "commit log: %d bytes (%d in all the logs a memtable still needs)\n", logBytes, retained)
	fmt.Fprintf(&b, "flushes: %d (skipped: %d)  compactions: %d (deferred: %d, trivial moves: %d)\n",
		m.Flushes, m.FlushSkips, m.Compactions, m.CompactionsDeferred, m.TrivialMoves)
	fmt.Fprintf(&b, "bytes: user %d  logged %d (relogged %d)  flushed %d  compacted %d\n",
		m.UserBytes, m.BytesLogged, m.BytesRelogged, m.BytesFlushed, m.BytesCompacted)
	fmt.Fprintf(&b, "background time: flush %s, compaction %s\n", m.FlushTime, m.CompactionTime)
	fmt.Fprintf(&b, "compaction debt: %d bytes  write stalls: %d (%s total)\n",
		db.CompactionDebt(), m.WriteStalls, m.WriteStallTime)
	fmt.Fprintf(&b, "WA: %.2f (flush-relative %.2f)  RA: %.2f\n",
		m.WriteAmplification(), m.FlushRelativeWA(), m.ReadAmplification())
	if hits, misses := db.CacheStats(); hits+misses > 0 {
		fmt.Fprintf(&b, "block cache: %d hits, %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	if m.HotKeysKeptInMem > 0 || m.ColdEntriesFlushed > 0 {
		fmt.Fprintf(&b, "triad-mem: %d hot kept, %d cold flushed\n", m.HotKeysKeptInMem, m.ColdEntriesFlushed)
	}
	return b.String()
}

// RetainedLogBytes reports the bytes of commit log the engine keeps because
// a memtable is still backed by them: the current log, the previous one a
// flush skip left behind (together up to twice CommitLogBytes) and those of
// the memtables queued for flush. Logs pinned by CL-SSTables are table
// bytes and not counted.
func (db *DB) RetainedLogBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.retainedLogBytesLocked()
}

func (db *DB) retainedLogBytesLocked() int64 {
	n := db.liveLogBytesLocked()
	for _, imm := range db.imm {
		n += imm.logBytes
	}
	return n
}

// liveLogBytesLocked is the size of the logs backing the live memtable.
func (db *DB) liveLogBytesLocked() int64 {
	if db.prev == nil {
		return db.log.Size()
	}
	return db.prev.Size() + db.log.Size()
}
