// Package lsm implements the LSM key-value engine (paper Figure 1): a
// memtable absorbing updates, a commit log for durability, and a leveled
// on-disk component maintained by background flushes and compactions.
//
// One engine serves as both sides of every experiment: with the three
// technique toggles off it behaves like the paper's RocksDB baseline
// (leveled compaction, one-file-at-a-time L0 merges, full memtable
// flushes); enabling TriadMem / TriadDisk / TriadLog switches in the
// paper's §4 mechanisms at exactly three sites — the flush policy, the L0
// compaction gate, and the L0 table format — leaving everything else
// byte-identical, which is what makes the ablation meaningful.
//
// Snapshots and iterators pin engine state (the memtable versions they
// read, zombie sstables) until closed; the tests' store opener checks
// that none is left open when a test ends (README "Leak checks").
package lsm

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/base"
	"repro/internal/bgsched"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// ErrNotFound is returned by Get for missing (or deleted) keys.
var ErrNotFound = errors.New("lsm: key not found")

// ErrClosed is returned on use after Close.
var ErrClosed = errors.New("lsm: database closed")

// errInvariant wraps the refusal of a change that would break an invariant
// of the store: a bug in the engine, never an I/O failure.
var errInvariant = errors.New("lsm: invariant violated")

// immutable is a sealed memtable and the commit logs that back it, queued
// for flush: log, which was current when it was sealed and is still open
// (the flush task may append to it), and prev, the closed logs before it
// (DB.prev when it was sealed).
type immutable struct {
	mem      *memtable.Memtable
	log      *wal.Writer
	prev     []uint64
	logBytes int64  // in all of them when it was sealed
	seq      uint64 // the store's sequence when it was sealed
	// trigger is what sealed it: "log-full", "memtable-full" or "explicit".
	trigger string
}

// memView is one published state of the memtable stack; it is never
// modified after it is stored.
type memView struct {
	mem  *memtable.Memtable
	imms []*immutable // oldest first, as db.imm
}

// publishViewLocked makes the current mem and imm what readers see.
// Caller holds db.mu (or is Open, before anyone else can look).
func (db *DB) publishViewLocked() {
	if db.closed {
		return // Close retired the view; its drain must not bring it back
	}
	db.view.Store(&memView{mem: db.mem, imms: append([]*immutable(nil), db.imm...)})
}

// DB is the key-value store.
type DB struct {
	opts   Options
	fs     vfs.FS
	picker *compaction.Picker
	met    metrics.Metrics

	// mu guards the mutable write-side state and the background queue.
	// Every entry of mem points into log, which commits append to, or into
	// one of prev: closed and synced logs, kept on disk until a carry has
	// moved what still points into them — the log the last flush skip
	// filled, or the logs a reopened memtable was replayed from; none after
	// a seal.
	mu     sync.Mutex
	cond   *sync.Cond // signalled on queue/state changes
	mem    *memtable.Memtable
	imm    []*immutable
	log    *wal.Writer
	prev   []uint64
	seq    uint64
	nextID uint64
	closed bool
	// prevBytes is the size of the logs of prev.
	prevBytes int64
	// noBackgroundIO is Figure 2's "RocksDB No BG I/O", set by
	// SetDisableBackgroundIO: sealed memtables are discarded instead of
	// flushed and no compaction runs, so reads are served from the tree
	// as it stood.
	noBackgroundIO bool

	// versionMu guards the version pointer and the open-table map. Reads
	// hold it shared for the duration of a lookup so installs cannot
	// close a table out from under them.
	versionMu sync.RWMutex
	version   *manifest.Version
	tables    map[uint64]sstable.Table
	// logNumber is the manifest's LogNumber as journaled: recovery would
	// delete an unpinned log below it rather than replay it.
	logNumber uint64

	manifest *manifest.Log
	cache    *sstable.Handle // this DB's tenant view of the block cache

	// compactionMu serializes compaction pick+run cycles between the
	// background worker and explicit CompactOnce/CompactAll callers, so
	// no two compactions can consume the same files.
	compactionMu sync.Mutex

	bgErr error // first background error; surfaced on subsequent ops

	// pool runs this engine's flushes and compactions: Options.Scheduler,
	// or a small pool of the engine's own (ownsPool) that Close tears
	// down. sched is the engine's owner handle on it. flushActive and
	// compactQueued (guarded by mu) keep at most one flush task draining
	// the queue and one compaction task queued at a time, so a burst of
	// seals does not pile duplicate tasks onto the pool.
	pool          *bgsched.Pool
	ownsPool      bool
	sched         *bgsched.Owner
	flushActive   bool
	compactQueued bool

	flushing    int // immutables currently being flushed
	seedCounter int64

	// l0Pressure caches the picker's L0Pressure of the version (L0's file
	// count, or where L0 can fold its read depth) for the write-stall check
	// and the compaction class, without taking versionMu on the write path.
	l0Pressure atomic.Int32

	// view is the memtable stack as readers see it: republished (under
	// mu) whenever mem or imm changes, nil once the DB is closed. A Get
	// loads it instead of taking mu, so a read never waits for a commit.
	view atomic.Pointer[memView]

	// compactedFrom[l] totals the bytes written by compactions whose
	// input level was l (LevelStat.CompactedBytes), l0MergesInto[l] the
	// L0 merges whose output level was l (LevelStat.L0Merges), and gets[l]
	// what lookups cost on level l.
	compactedFrom [manifest.NumLevels]atomic.Int64
	l0MergesInto  [manifest.NumLevels]atomic.Int64
	gets          [manifest.NumLevels]levelGets

	// Snapshot state. snaps and pinned are guarded by mu (the write path
	// hands pinned to memtable.SetPinned while already holding it); refs
	// and zombies are guarded by versionMu alongside the version and table
	// map they qualify.
	snaps     map[*snapPin]struct{}
	pinned    []uint64 // the sequences of snaps, ascending
	snapLeaks atomic.Int64

	// refs counts snapshot pins per table file; zombies holds files a
	// compaction consumed while still pinned — closed and deleted when
	// the last pin drops.
	refs    map[uint64]int
	zombies map[uint64]*manifest.FileMeta
}

// Open opens (creating or recovering) a DB in opts.FS.
func Open(opts Options) (*DB, error) {
	if opts.FS == nil {
		return nil, errors.New("lsm: Options.FS is required")
	}
	opts.withDefaults()
	// A caller-injected cache is shared across engines (table IDs are
	// per-DB, so the tenant handle keys this DB's blocks apart); the
	// fallback is a private cache sized from BlockCacheBytes.
	cc := opts.BlockCache
	if cc == nil {
		cc = sstable.NewCache(opts.BlockCacheBytes)
	}
	db := &DB{
		opts:    opts,
		fs:      opts.FS,
		picker:  compaction.NewPicker(opts.pickerOptions()),
		tables:  make(map[uint64]sstable.Table),
		cache:   cc.NewHandle(),
		snaps:   make(map[*snapPin]struct{}),
		refs:    make(map[uint64]int),
		zombies: make(map[uint64]*manifest.FileMeta),
	}
	db.cond = sync.NewCond(&db.mu)
	if err := db.recover(); err != nil {
		// recover stops at its first error; give back what it opened.
		return nil, errors.Join(err, db.release())
	}
	db.publishViewLocked()
	// Background work runs as tasks on a worker pool: the caller's
	// (the sharded store injects one store-wide pool), else a small one
	// of the engine's own.
	db.pool = opts.Scheduler
	if db.pool == nil {
		db.pool = bgsched.NewPool(bgsched.DefaultWorkers(1))
		db.ownsPool = true
	}
	db.sched = db.pool.NewOwner()
	// A recovered tree may already be over its compaction triggers
	// (e.g. many L0 files); queue a round immediately.
	db.mu.Lock()
	db.requestCompactLocked()
	db.mu.Unlock()
	return db, nil
}

func (db *DB) nextSeed() int64 {
	db.seedCounter++
	return db.opts.Seed + db.seedCounter
}

// recover reconstructs the tree from the manifest and replays orphan logs.
func (db *DB) recover() error {
	ml, v, state, err := manifest.OpenLog(db.fs)
	if err != nil {
		return err
	}
	db.manifest = ml
	db.version = v
	db.l0Pressure.Store(int32(db.picker.L0Pressure(v.Levels[0])))
	db.seq = state.LastSeq
	db.nextID = state.NextFileID
	db.logNumber = state.LogNumber
	if db.nextID == 0 {
		db.nextID = 1
	}

	// Open every table the manifest references; remember which commit
	// logs are pinned by CL-SSTables.
	pinnedLogs := map[uint64]bool{}
	listed := map[string]bool{}
	for _, files := range v.Levels {
		for _, f := range files {
			t, err := db.openTable(f)
			if err != nil {
				return fmt.Errorf("lsm: recover table %d: %w", f.ID, err)
			}
			db.tables[f.ID] = t
			listed[tableFileName(f)] = true
			for _, id := range f.Logs() {
				pinnedLogs[id] = true
			}
			if f.Kind == manifest.KindCLSST && f.LogBytes == 0 {
				// Written before tables recorded it; nothing else can
				// see the version yet.
				if f.LogBytes, err = t.(*sstable.CLReader).LogBytes(); err != nil {
					return fmt.Errorf("lsm: recover table %d: %w", f.ID, err)
				}
			}
			if f.ID >= db.nextID {
				db.nextID = f.ID + 1
			}
		}
	}

	// Replay unpinned logs (current and previous at crash, or sealed but
	// unflushed) into a fresh memtable. A key's record with the highest
	// sequence wins, whichever file holds it: what a flush skip or a flush
	// carried into a newer file is older than the records around it.
	// Records of one sequence are one batch, in order within one file, so
	// among equals the later one wins. An unpinned log below the log
	// number is not replayed but deleted: its tables have left the tree
	// (a merge, or a crash between a flush's edit and the removal of the
	// logs it superseded), and its records are older than theirs.
	//
	// A table file no level lists is deleted (LevelDB's
	// RemoveObsoleteFiles): the output of a flush, fold or merge that
	// crashed before its manifest edit, or an input of one that crashed
	// between its edit and the input's removal. No snapshot outlives the
	// process, so none of them is a zombie.
	names, err := db.fs.List("")
	if err != nil {
		return err
	}
	var replayIDs, staleIDs []uint64
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(name, "%d.", &id); err != nil {
			continue
		}
		if (name == sstable.FileName(id) || name == sstable.CLIndexFileName(id)) && !listed[name] {
			if err := db.fs.Remove(name); err != nil {
				return err
			}
			continue
		}
		if name != wal.FileName(id) || pinnedLogs[id] {
			continue
		}
		if id < db.logNumber {
			staleIDs = append(staleIDs, id)
		} else {
			replayIDs = append(replayIDs, id)
		}
	}
	db.mem = memtable.New(db.nextSeed())
	for _, id := range replayIDs {
		err := wal.Replay(db.fs, id, func(e base.Entry, off int64) error {
			db.seq = max(db.seq, e.Seq)
			if cur, ok := db.mem.Get(e.Key); !ok || e.Seq >= cur.Seq {
				db.mem.Set(e.Key, e.Value, e.Seq, e.Kind, id, off)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("lsm: replay log %d: %w", id, err)
		}
		db.nextID = max(db.nextID, id+1)
	}

	// The replayed logs an entry points into stay behind the memtable, as a
	// flush skip's full log does, until a carry retires them; they are
	// synced first, since a process crash may have left their tails in
	// memory. The others go with the stale ones.
	backing := map[uint64]bool{}
	for _, e := range db.mem.All() {
		backing[e.LogID] = true
	}
	for _, id := range replayIDs {
		if !backing[id] {
			staleIDs = append(staleIDs, id)
			continue
		}
		size, err := wal.Sync(db.fs, id)
		if err != nil {
			return fmt.Errorf("lsm: sync replayed log %d: %w", id, err)
		}
		db.prev, db.prevBytes = append(db.prev, id), db.prevBytes+size
	}
	if db.log, err = wal.NewWriter(db.fs, db.allocFileID(), db.opts.SyncWAL); err != nil {
		return err
	}
	return db.retireLogs(staleIDs...)
}

// tableFileName returns the name of the file that holds table f: for a
// CL-SSTable, its index.
func tableFileName(f *manifest.FileMeta) string {
	if f.Logs() != nil {
		return sstable.CLIndexFileName(f.ID)
	}
	return sstable.FileName(f.ID)
}

func (db *DB) openTable(f *manifest.FileMeta) (sstable.Table, error) {
	switch f.Kind {
	case manifest.KindSST:
		return sstable.OpenWithCache(db.fs, f.ID, db.cache)
	case manifest.KindCLSST, manifest.KindCLFold:
		return sstable.OpenCLWithCache(db.fs, f.ID, db.cache)
	default:
		return nil, fmt.Errorf("lsm: table %d of unknown kind %d", f.ID, f.Kind)
	}
}

// BlockCacheStats reports this DB's full block-cache counters: its own
// hits/misses/evictions and the bytes it holds resident. When the cache
// is shared, Resident is this tenant's slice of it, not the whole cache.
func (db *DB) BlockCacheStats() sstable.CacheStats { return db.cache.Stats() }

func (db *DB) allocFileID() uint64 {
	id := db.nextID
	db.nextID++
	return id
}

// pointingInto lists, in key order, the current record of every entry of
// mem whose LogID is one of from.
func pointingInto(mem *memtable.Memtable, from []uint64) []base.Entry {
	if len(from) == 0 {
		return nil
	}
	var recs []base.Entry
	for it := mem.NewIter(); it.Next(); {
		if e := it.Entry(); slices.Contains(from, e.LogID) {
			recs = append(recs, e.Base())
		}
	}
	return recs
}

// populateLog carries the entries of mem that point into the logs from —
// recs, as pointingInto listed them — over to w: one batch, one device
// write, made durable, and the entries re-pointed at their new records
// (Algorithm 1, populateLog + CLUpdateOffset). Once it returns, no entry of
// mem needs the logs from. It returns the bytes appended. Caller holds
// db.mu if mem is live: the position updates are memtable writes.
func (db *DB) populateLog(w *wal.Writer, mem *memtable.Memtable, from []uint64, recs []base.Entry) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	offs, n, err := w.AppendBatch(recs)
	if err == nil && !db.opts.SyncWAL {
		err = w.Sync() // the logs from are about to be removed on the strength of this copy
	}
	if err != nil {
		return 0, err
	}
	db.noteRelogged(n)
	mem.Relog(from, w.ID(), offs)
	return n, nil
}

// noteRelogged accounts n bytes the engine appended to a commit log on its
// own behalf — carried across a rotation or into a sealed log, or a
// flush's hot write-back — not for a user's commit.
func (db *DB) noteRelogged(n int) {
	db.met.BytesLogged.Add(int64(n))
	db.met.BytesRelogged.Add(int64(n))
}

// retireLogs removes commit logs the engine no longer needs, oldest first.
// It is the only place a log is removed, and the order is what makes any
// crash between two removals recoverable: replay keeps a key's record with
// the highest sequence over all logs it finds, so a log may go only when
// every record that still matters in it is in a newer log or in a table,
// and an older log left behind by itself would put stale versions over
// the tables the newer one was flushed into. A log below the manifest's
// log number is safe to leave behind in any order: recovery deletes it.
func (db *DB) retireLogs(ids ...uint64) error {
	slices.Sort(ids)
	for _, id := range ids {
		if err := db.fs.Remove(wal.FileName(id)); err != nil {
			return err
		}
	}
	return nil
}

// Put associates value with key.
func (db *DB) Put(key, value []byte) error {
	return db.WriteAt(0, key, value, base.KindSet)
}

// Delete removes key (writing a tombstone).
func (db *DB) Delete(key []byte) error {
	return db.WriteAt(0, key, nil, base.KindDelete)
}

// WriteAt commits one operation as a batch of one — the same commit stage
// as any batch, with the batch on this frame instead of the heap. seq is
// an externally assigned sequence as for CommitAt, or 0 for the next
// internal one.
func (db *DB) WriteAt(seq uint64, key, value []byte, kind base.Kind) error {
	ops := [1]base.Entry{copyEntry(key, value, kind)}
	return db.commit(seq, &Batch{ops: ops[:]}, nil)
}

// WaitWritable blocks until the engine would accept a write without
// stalling (or it closes / hits a background error). The sharded
// engine calls it before entering its cross-shard apply barrier, so a
// stalled shard absorbs its backpressure outside the barrier instead
// of holding it — and thereby every other shard's batches — for the
// length of a compaction.
func (db *DB) WaitWritable() error {
	// Neither stall condition can hold below these two counts, and the
	// commit checks again under its lock, so the usual answer costs two
	// atomic loads and no lock.
	if v := db.view.Load(); v != nil && len(v.imms) <= maxImmutableMemtables && db.l0Pressure.Load() < l0StallFiles {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.bgErr != nil {
		return db.bgErr
	}
	return db.stallLocked()
}

// stallLocked applies write backpressure: writers wait while the flush
// queue is full or L0's pressure has reached l0StallFiles (RocksDB's
// stop-writes trigger) — the mechanism through which background-I/O debt
// reaches user-facing throughput (§3). A background error stops the
// background work that would end the stall, so it ends the wait with that
// error. Caller holds db.mu.
func (db *DB) stallLocked() error {
	l0Stall := func() bool {
		return !db.noBackgroundIO && !db.opts.DisableAutoCompaction &&
			db.l0Pressure.Load() >= l0StallFiles
	}
	var stallStart time.Time
	var reason string
	for !db.closed && db.bgErr == nil && (len(db.imm) > maxImmutableMemtables || l0Stall()) {
		if stallStart.IsZero() {
			stallStart = time.Now()
			if l0Stall() {
				reason = "l0-stop-writes"
			} else {
				reason = "flush-queue-full"
			}
		}
		db.cond.Wait()
	}
	if !stallStart.IsZero() {
		d := time.Since(stallStart)
		db.met.WriteStalls.Add(1)
		db.met.WriteStallTime.Add(d.Nanoseconds())
		db.opts.Events.Add(obs.Event{
			Kind:   obs.EventStall,
			Shard:  db.opts.EventShard,
			Level:  -1,
			Dur:    d,
			Detail: reason,
		})
	}
	if db.closed {
		return ErrClosed
	}
	return db.bgErr
}

// maybeRotateLocked seals the memtable when it or the commit log is full
// (paper §2, Flushing). Caller holds db.mu.
func (db *DB) maybeRotateLocked() error {
	size := db.mem.ApproxSize()
	if size >= db.opts.MemtableBytes {
		return db.sealLocked("memtable-full")
	}
	if db.log.Size() < db.opts.CommitLogBytes {
		return nil
	}
	// TRIAD-MEM flush skip (Algorithm 1): the log filled first, which is
	// what skew does. A flush would keep the hot keys and write only the
	// cold part to L0; while that part is under FLUSH_TH the file is not
	// worth making, and the full log is retired lazily instead: it stays
	// behind as prev, and only what still points into the logs of prev
	// before it — entries nobody rewrote for a whole generation, or since a
	// reopen — is carried into the fresh log. That copy must leave half the
	// log for new writes or the skip would come round again within a few
	// puts.
	if db.opts.TriadMem {
		if cold := db.mem.ColdBytes(); cold < db.opts.FlushThresholdBytes {
			carry := pointingInto(db.mem, db.prev)
			if int64(wal.BatchSize(carry)) <= db.opts.CommitLogBytes/2 {
				return db.skipFlushLocked(size, cold, carry)
			}
		}
	}
	return db.sealLocked("log-full")
}

// skipFlushLocked opens a fresh commit log, carries into it the entries
// that still point into prev (carry), removes those logs and keeps the full
// one as the new prev. size and cold are the memtable's accounted bytes and
// the cold part of them. Caller holds db.mu.
func (db *DB) skipFlushLocked(size, cold int64, carry []base.Entry) error {
	start := time.Now()
	newLog, err := wal.NewWriter(db.fs, db.allocFileID(), db.opts.SyncWAL)
	if err != nil {
		return err
	}
	carried, err := db.populateLog(newLog, db.mem, db.prev, carry)
	if err != nil {
		// prev and the current log still hold every record between them and
		// stay as they are. Whatever part of the copy reached the file must
		// not outlive this call: it would be replayed beside logs that have
		// since moved on.
		return errors.Join(err, newLog.Close(), db.retireLogs(newLog.ID()))
	}
	// The memtable now points into the current log and the fresh one only.
	full, stale := db.log, db.prev
	db.log, db.prev, db.prevBytes = newLog, []uint64{full.ID()}, full.Size()
	err = full.Close()
	detail := fmt.Sprintf("skipped: cold %d of %d B under FLUSH_TH %d; carried %d of %d entries / %d bytes from logs %v; log %d retained",
		cold, size, db.opts.FlushThresholdBytes, len(carry), db.mem.Len(), carried, stale, full.ID())
	err = errors.Join(err, db.retireLogs(stale...))
	db.met.FlushSkips.Add(1)
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventFlush, Shard: db.opts.EventShard, Level: -1,
		Dur: time.Since(start), In: size, Detail: detail,
	})
	return err
}

// sealLocked moves the live memtable and the logs backing it onto the flush
// queue and installs fresh ones; trigger names the cause for the flush's
// journal entry. Caller holds db.mu.
func (db *DB) sealLocked(trigger string) error {
	newLog, err := wal.NewWriter(db.fs, db.allocFileID(), db.opts.SyncWAL)
	if err != nil {
		return err
	}
	db.imm = append(db.imm, &immutable{mem: db.mem, log: db.log, prev: db.prev, logBytes: db.liveLogBytesLocked(), seq: db.seq, trigger: trigger})
	db.mem = memtable.New(db.nextSeed())
	db.log, db.prev, db.prevBytes = newLog, nil, 0
	db.publishViewLocked()
	db.cond.Broadcast()
	db.scheduleFlushLocked()
	return nil
}

// Get returns the value stored under key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	return db.GetTraced(key, nil)
}

// GetTraced is Get with an optional sampled trace attached: any
// cache-missing table read the lookup performs is recorded as an
// sstable_read span. tr is nil on the untraced path.
func (db *DB) GetTraced(key []byte, tr *obs.Trace) ([]byte, error) {
	db.met.UserReads.Add(1)
	v := db.view.Load()
	if v == nil {
		return nil, ErrClosed
	}
	if e, ok := v.mem.Get(key); ok {
		db.met.ReadsFromMem.Add(1)
		return entryValue(e.Base())
	}
	for i := len(v.imms) - 1; i >= 0; i-- {
		if e, ok := v.imms[i].mem.Get(key); ok {
			db.met.ReadsFromMem.Add(1)
			return entryValue(e.Base())
		}
	}

	return db.getFromVersion(nil, key, tr)
}

func entryValue(e base.Entry) ([]byte, error) {
	if e.Kind == base.KindDelete {
		return nil, ErrNotFound
	}
	return e.Value, nil
}

// LastSeq reports the highest committed sequence number. When this DB
// serves as one shard of a sharded store it is the shard's view of the
// store-wide commit clock; the store resumes its clock from the maximum
// across shards on reopen.
func (db *DB) LastSeq() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.seq
}

// Metrics returns a snapshot of the engine's counters.
func (db *DB) Metrics() metrics.Snapshot { return db.met.Snapshot() }

// Flush seals the current memtable (if non-empty) and blocks until the
// whole flush queue has drained.
func (db *DB) Flush() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.mem.Len() > 0 {
		if err := db.sealLocked("explicit"); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	for (len(db.imm) > 0 || db.flushing > 0) && db.bgErr == nil && !db.closed {
		db.cond.Wait()
	}
	err := db.bgErr
	db.mu.Unlock()
	return err
}

// SetDisableBackgroundIO toggles Figure 2's no-background-I/O mode at
// runtime (the experiment pre-populates the tree first, then disables).
func (db *DB) SetDisableBackgroundIO(v bool) {
	db.mu.Lock()
	db.noBackgroundIO = v
	db.mu.Unlock()
}

// CompactionDebt estimates the bytes of compaction work the tree owes
// before it is back in shape (compaction.Picker.Debt) — the backlog the
// background pool is burning down, surfaced per shard as
// triad_compaction_backlog_bytes.
func (db *DB) CompactionDebt() int64 {
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	return db.picker.Debt(db.version)
}

// LevelStat is one level of the tree as the picker sees it.
type LevelStat struct {
	Files int
	// Depth is, for L0, its read depth (compaction.L0Depth): the most of
	// its tables whose key range holds any one key. Zero below L0.
	Depth int
	// Bytes is what the level holds on disk: its tables and, for L0, the
	// commit logs its CL-SSTables pin, of which LogBytes is the part.
	Bytes, LogBytes int64
	// LogCeiling is, for L0 where it can fold, the most commit log it may
	// pin before it merges whatever its rent (compaction.Picker.L0LogCeiling):
	// it moves with the bytes L0's merge would rewrite. Zero elsewhere.
	LogCeiling int64
	// Target is the byte budget the picker currently allows the level
	// (compaction.Picker.Targets; it moves with the bottom level's size).
	// Zero for L0, which is triggered by its pressure instead
	// (compaction.Picker.L0Pressure: Depth where L0 can fold, else Files).
	Target int64
	// Score is the level's compaction pressure (compaction.Picker.Scores):
	// Bytes over Target, or for L0 its pressure over
	// compaction.L0CompactionTrigger. Above 1 the picker owes the level a
	// compaction.
	Score float64
	// CompactedBytes totals the bytes written by compactions that took
	// their input from this level since the DB opened; over all levels it
	// sums to the BytesCompacted counter.
	CompactedBytes int64
	// L0Merges counts the L0 merges that wrote this level as their output
	// level since the DB opened: L1, or a deeper level when the merge went
	// deep (compaction.Picker.Pick). Folds are not merges.
	L0Merges int64
	// Probes counts the level's tables that lookups (Get, snapshot Get)
	// consulted since the DB opened: the tables whose range holds the key,
	// in L0 down to the one that held it. Each probe is a filter negative,
	// a filter false positive or a hit: FilterNegatives are the probes a
	// Bloom filter turned away, having read nothing, and
	// FilterFalsePositives those it passed for a key the table does not
	// hold. BlockReads and LogReads are the disk reads the probes charged:
	// blocks the cache did not hold, and the commit-log records of
	// CL-SSTable values. Over all levels the two sum to TableDiskReads.
	Probes, FilterNegatives, FilterFalsePositives, BlockReads, LogReads int64
}

// LevelStats reports every level's shape, target and pressure, indexed by
// level.
func (db *DB) LevelStats() []LevelStat {
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	v := db.version
	targets, scores := db.picker.Scores(v)
	out := make([]LevelStat, manifest.NumLevels)
	for l := range out {
		out[l] = LevelStat{
			Files: len(v.Levels[l]), Bytes: v.LevelSize(l), Target: targets[l], Score: scores[l],
			CompactedBytes:       db.compactedFrom[l].Load(),
			L0Merges:             db.l0MergesInto[l].Load(),
			Probes:               db.gets[l].probes.Load(),
			FilterNegatives:      db.gets[l].filterNegatives.Load(),
			FilterFalsePositives: db.gets[l].falsePositives.Load(),
			BlockReads:           db.gets[l].blockReads.Load(),
			LogReads:             db.gets[l].logReads.Load(),
		}
	}
	for _, f := range v.Levels[0] {
		out[0].LogBytes += f.LogBytes
	}
	out[0].Depth = compaction.L0Depth(v.Levels[0])
	out[0].Bytes += out[0].LogBytes
	out[0].LogCeiling = db.picker.L0LogCeiling(v)
	return out
}

// NumLevelFiles reports the file count per level (observability/tests).
func (db *DB) NumLevelFiles() []int {
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	out := make([]int, manifest.NumLevels)
	for l, files := range db.version.Levels {
		out[l] = len(files)
	}
	return out
}

// Close drains background work and releases all resources.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.view.Store(nil)
	db.cond.Broadcast()
	db.mu.Unlock()
	// Cancel queued tasks and wait out running ones, then flush any
	// immutables a purged flush task left behind: a sealed memtable's
	// flush must not be lost.
	db.sched.Close()
	db.flushTask()

	// Live snapshots cannot be read once the tables close; unregister
	// them so their eventual Close/finalizer is a no-op, and reclaim the
	// files only they were pinning.
	db.mu.Lock()
	err := db.bgErr
	clear(db.snaps)
	db.pinned = nil
	db.mu.Unlock()

	if e := db.release(); err == nil {
		err = e
	}
	return err
}

// release gives back everything Open acquired — the commit logs, the open
// tables (and the zombie files only snapshots were keeping), this tenant's
// blocks in the (possibly shared) cache, the manifest, the engine's own
// pool — and reports the first error. It is the tail of Close and the
// whole of a failed Open, where recover may have stopped anywhere, so
// nothing here assumes a field was reached.
func (db *DB) release() error {
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if db.log != nil {
		keep(db.log.Close())
	}
	// A memtable a failed flush left queued still holds its log open.
	for _, imm := range db.imm {
		keep(imm.log.Close())
	}
	db.versionMu.Lock()
	for _, t := range db.tables {
		keep(t.Close())
	}
	db.tables = nil
	zombies := slices.Collect(maps.Values(db.zombies))
	db.zombies = map[uint64]*manifest.FileMeta{}
	logs, e := db.dropTablesLocked(zombies)
	keep(e)
	db.versionMu.Unlock()
	_, e = db.removeTables(zombies, logs)
	keep(e)
	// A long-lived store-wide cache must not accumulate blocks of closed
	// shards.
	db.cache.Release()
	if db.manifest != nil {
		keep(db.manifest.Close())
	}
	if db.ownsPool {
		db.pool.Close()
	}
	return err
}
