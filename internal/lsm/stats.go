package lsm

import "fmt"

// String renders the level the way STATS lists it.
func (ls LevelStat) String() string {
	logs := ""
	if ls.LogBytes > 0 {
		logs = fmt.Sprintf(" (%d of them pinned logs)", ls.LogBytes)
	}
	depth := ""
	if ls.Depth > 0 {
		depth = fmt.Sprintf(" (depth %d)", ls.Depth)
	}
	return fmt.Sprintf("%d files%s, %d bytes%s, target %d, score %.2f, compacted %d",
		ls.Files, depth, ls.Bytes, logs, ls.Target, ls.Score, ls.CompactedBytes)
}

// RetainedLogBytes reports the bytes of commit log the engine keeps because
// a memtable is still backed by them: the current log, the ones before it
// that the live memtable still points into (the previous one a flush skip
// left behind, together up to twice CommitLogBytes, or the logs a reopened
// memtable was replayed from) and those of the memtables queued for flush.
// Logs pinned by CL-SSTables are table bytes and not counted.
func (db *DB) RetainedLogBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var n int64
	for _, r := range db.mems {
		n += r.retainedLogBytes()
	}
	return n
}

// UnsyncedLogBytes reports the bytes appended to the live commit log and to
// the logs of the memtables queued for flush that a power cut could still
// take: each log's size less its length at its last sync. With SyncWAL it
// is 0 unless a sync failed; without, it is 0 once Flush returns, if no
// write raced it.
func (db *DB) UnsyncedLogBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var n int64
	for _, r := range db.mems {
		n += r.log.Unsynced()
	}
	return n
}
