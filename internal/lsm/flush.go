package lsm

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/base"
	"repro/internal/bgsched"
	"repro/internal/compaction"
	"repro/internal/hll"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// The engine's background plane is a set of tasks on a bgsched worker
// pool (RocksDB's multi-threaded background work, which §6 credits):
// flushes at the highest priority class, so a flush never queues behind
// a long compaction and write stalls reflect flush speed, then
// compaction rounds, each one merge on the worker that runs it. The engine
// has one flush slot (flushActive) and one compaction slot (compactActive),
// each held from the moment its task is submitted until the task ends, so
// the pool holds at most one flush task and one compaction task of an
// engine and no worker waits behind its own engine's merge. Exactly one
// compaction runs per engine at a time, which keeps the paper's "% time
// spent in compaction" directly comparable to wall time.

// scheduleFlushLocked queues a flush task on the pool unless one is
// already draining the queue. Caller holds db.mu.
func (db *DB) scheduleFlushLocked() {
	if db.flushActive || len(db.mems) == 1 {
		return
	}
	db.flushActive = true
	if !db.sched.Submit(bgsched.ClassFlush, 0, db.flushTask) {
		// Owner closing: Close drains the queue inline.
		db.flushActive = false
	}
}

// flushTask drains the whole flush queue, oldest first, so a burst of
// seals costs one pool slot, and keeps draining after Close flips
// db.closed, since a sealed memtable's flush must not be lost: Close runs
// it once more, inline, for whatever a purged task left queued. Each
// memtable leaves the stack only once its flush is done.
func (db *DB) flushTask() {
	db.mu.Lock()
	for {
		if len(db.mems) == 1 || db.bgErr != nil {
			db.flushActive = false
			db.cond.Broadcast()
			db.mu.Unlock()
			return
		}
		r := db.mems[0]
		disable := db.noBackgroundIO
		db.mu.Unlock()

		var err error
		if disable {
			// Figure 2's "No BG I/O" variant: the sealed memtable is
			// dropped with its logs; nothing reaches L0.
			err = db.dropLogs(r)
		} else {
			err = db.flushImmutable(r)
		}

		db.mu.Lock()
		if err != nil {
			// A failed flush leaves its memtable queued, readable and
			// backed by its logs, which a reopen replays.
			db.setBgErrLocked("flush", err)
		} else {
			db.mems = db.mems[1:]
			db.publishViewLocked()
			if !db.opts.DisableAutoCompaction && !disable {
				db.requestCompactLocked()
			}
		}
		db.cond.Broadcast()
	}
}

// requestCompactLocked asks for a background compaction round. With the
// compaction slot free it takes the slot and queues one compaction task,
// classed by urgency — L0 at its trigger outranks deeper-level shaping;
// with the slot held it records the request, which the holder serves as
// it lets go. Caller holds db.mu.
func (db *DB) requestCompactLocked() {
	if db.closed || db.bgErr != nil || db.opts.DisableAutoCompaction || db.noBackgroundIO {
		return
	}
	if db.compactActive {
		db.compactAgain = true
		return
	}
	class := bgsched.ClassDeep
	if db.l0Pressure.Load() >= compaction.L0CompactionTrigger {
		class = bgsched.ClassL0
	}
	db.compactActive = true
	if !db.sched.Submit(class, 0, db.compactTask) {
		db.compactActive = false
	}
}

// compactTask runs ONE compaction round in the slot requestCompactLocked
// took for it and lets the slot go, asking for another round if this one
// did work: the task yields its worker between rounds so a shard with a
// deep backlog cannot monopolize the pool the way an in-task loop would.
func (db *DB) compactTask() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.compactAgain = false // the round's pick serves every request so far
	if !db.closed && db.bgErr == nil {
		db.mu.Unlock()
		ran, err := db.compactOnce(false)
		db.mu.Lock()
		if err != nil {
			db.setBgErrLocked("compaction", err)
			db.cond.Broadcast()
		}
		db.compactAgain = db.compactAgain || ran
	}
	db.releaseCompactLocked()
}

// releaseCompactLocked lets go of the compaction slot. A round asked for
// while the slot was held is queued at once, unless an explicit
// CompactOnce or CompactAll is waiting for the slot: the slot is then the
// caller's, and the round is queued when it lets go. Caller holds db.mu.
func (db *DB) releaseCompactLocked() {
	db.compactActive = false
	if db.compactWaiters > 0 {
		db.cond.Broadcast()
		return
	}
	if db.compactAgain {
		db.compactAgain = false
		db.requestCompactLocked()
	}
}

// setBgErrLocked records err, the failure of a background job (what),
// as the engine's background error unless it already has one, and
// journals the first. Caller holds db.mu.
func (db *DB) setBgErrLocked(what string, err error) {
	if db.bgErr != nil {
		return
	}
	db.bgErr = err
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventBackgroundError, Shard: db.opts.EventShard, Level: -1,
		Detail: fmt.Sprintf("%s failed: %v", what, err),
	})
}

// BackgroundError returns the first background error, which every later
// write returns; nil while background work succeeds.
func (db *DB) BackgroundError() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.bgErr
}

// flushImmutable writes imm, the oldest sealed memtable, to L0 (paper §2
// Flushing, §4.1 Algorithm 1 and §4.3 Figure 6 depending on the enabled
// techniques).
func (db *DB) flushImmutable(imm *memRecord) error {
	start := time.Now()
	defer func() { db.met.FlushTime.Add(time.Since(start).Nanoseconds()) }()

	inBytes := imm.mem.ApproxSize()
	if imm.mem.Len() == 0 {
		return db.dropLogs(imm)
	}
	if db.opts.TriadLog {
		// A CL-SSTable pins exactly one log: carry what still points into
		// prev over to the sealed log — here, not under the commit lock —
		// and prev, older than it, can go before the table exists.
		if _, err := db.populateLog(imm.log, imm.mem, imm.prev, pointingInto(imm.mem, imm.prev)); err != nil {
			return err
		}
		if err := db.retireLogs(imm.prev...); err != nil {
			return err
		}
	}

	var toFlush []*memtable.Entry
	var detail string
	if !db.opts.TriadMem {
		toFlush = imm.mem.All()
		detail = fmt.Sprintf("%s: %d entries", imm.trigger, len(toFlush))
	} else {
		cold := imm.mem.ColdBytes() // before the separation resets the counters it reads
		sep := imm.mem.SeparateKeys(memtable.HotAboveMean, 0)
		detail = fmt.Sprintf("%s: cold %d of %d B, %d cold / %d hot entries",
			imm.trigger, cold, inBytes, len(sep.Cold), len(sep.Hot))
		toFlush = sep.Cold // never empty: no memtable is all above its own mean
		db.met.HotKeysKeptInMem.Add(int64(len(sep.Hot)))
		if len(sep.Hot) > 0 {
			// Keep hot entries in the new memtable and write them back
			// to the current commit log so no information is lost
			// (Figure 3), unless a newer memtable — the live one or one
			// sealed after this one — holds the key. A newer memtable's
			// version is always the newer one: memtables flush one at a
			// time, oldest first (flushTask), and a write-back goes into
			// the live memtable only where no memtable after the flushing
			// one holds the key, so no memtable holds an older version of
			// a key than one sealed before it. A write-back therefore
			// never replaces an entry, and there is no replaced version
			// for a snapshot to keep: it writes with Set.
			db.mu.Lock()
			live := db.liveLocked()
			newer := db.mems[slices.Index(db.mems, imm)+1:]
			// Decide which hot entries still stand, log those as one
			// batch, then apply them.
			var recs []base.Entry
			for _, h := range sep.Hot {
				if !slices.ContainsFunc(newer, func(r *memRecord) bool {
					_, ok := r.mem.Get(h.Key)
					return ok
				}) {
					recs = append(recs, h.Base())
				}
			}
			// The flush's edit moves the log number past the only other
			// copy of these entries.
			offs, _, err := db.relog(live.log, recs)
			if err != nil {
				db.mu.Unlock()
				return err
			}
			for i, h := range recs {
				live.mem.Set(h.Key, h.Value, h.Seq, h.Kind, live.log.ID(), offs[i])
			}
			db.mu.Unlock()
		}
	}
	db.met.ColdEntriesFlushed.Add(int64(len(toFlush)))
	// TRIAD-LOG converts the sealed commit log into a CL-SSTable: "instead
	// of copying Cm to disk", the flush writes only the sorted offset index
	// over it — with TRIAD-MEM, of its cold part alone.
	meta := manifest.FileMeta{Kind: manifest.KindSST, MaxSeq: imm.seq}
	if db.opts.TriadLog {
		// The table's edit names the log's bytes and moves the log number
		// past it, so the bytes must be durable first (install checks).
		if err := imm.log.Sync(); err != nil {
			return err
		}
		meta.Kind, meta.LogID, meta.LogBytes = manifest.KindCLSST, imm.log.ID(), imm.log.Size()
		detail += ", CL-SSTable index only"
	}
	t, err := db.newTable(meta)
	if err != nil {
		return err
	}
	defer t.abort()
	for _, e := range toFlush {
		if err := t.add(e.Base(), e.LogID, e.LogOffset); err != nil {
			return err
		}
	}
	if meta, err = t.finish(); err != nil {
		return err
	}
	db.met.BytesFlushed.Add(meta.Size)
	db.met.Flushes.Add(1)

	if err := db.install(manifest.Edit{Added: []manifest.FileMeta{meta}}, nil, imm); err != nil {
		return err
	}
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventFlush, Shard: db.opts.EventShard, Level: 0,
		Dur: time.Since(start), In: inBytes, Out: meta.Size,
		Files: 1, Detail: detail,
	})
	if !db.opts.TriadLog {
		// The memtable contents are durable in the SSTable; the logs can
		// go. Under TRIAD-LOG the log *is* the table's value store and
		// stays pinned until compaction consumes it.
		return db.dropLogs(imm)
	}
	return imm.log.Close()
}

// dropLogs closes a sealed memtable's log and removes the logs backing it.
func (db *DB) dropLogs(r *memRecord) error {
	if err := r.log.Close(); err != nil {
		return err
	}
	return db.retireLogs(append(r.prev, r.log.ID())...)
}

// tableWriter makes one table: a flush's, a fold's or one output of a
// merge. It is the one way the engine writes a table file.
type tableWriter struct {
	fs   vfs.FS
	w    *sstable.Writer
	cl   *sstable.CLWriter // a CL-SSTable's, whose container w is
	meta manifest.FileMeta
	done bool
}

// l0Sketched reports whether the engine keeps a key sketch for table f:
// TRIAD-DISK's overlap ratio reads those of L0's tables.
func (db *DB) l0Sketched(f *manifest.FileMeta) bool {
	return db.opts.TriadDisk && f.Level == 0
}

// keySketch returns the sketch of t's keys, the one its writer made: every
// key once, in order. A CL-SSTable's come from its index alone.
func keySketch(t sstable.Table) (*hll.Sketch, error) {
	s := hll.MustNew(hll.DefaultPrecision)
	it := t.NewIndexIterator()
	defer it.Close()
	for it.Next() {
		s.Add(it.Entry().Key)
	}
	return s, it.Err()
}

// newTable opens a writer for a table described by meta (its kind, level,
// logs and what else the caller knows of it) under a fresh file number.
// The caller defers abort.
func (db *DB) newTable(meta manifest.FileMeta) (*tableWriter, error) {
	db.mu.Lock()
	meta.ID = db.allocFileID()
	db.mu.Unlock()
	if db.l0Sketched(&meta) {
		meta.Sketch = hll.MustNew(hll.DefaultPrecision)
	}
	t := &tableWriter{fs: db.fs, meta: meta}
	var err error
	if logs := meta.Logs(); logs == nil {
		t.w, err = sstable.NewWriter(db.fs, meta.ID, db.opts.BlockBytes)
	} else if t.cl, err = sstable.NewCLWriter(db.fs, meta.ID, logs, db.opts.BlockBytes); err == nil {
		t.w = t.cl.Writer
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// add appends e, or to a CL-SSTable that e's record lives at byte off of
// log, and adds e's key to the table's sketch if it has one. Keys must
// ascend.
func (t *tableWriter) add(e base.Entry, log uint64, off int64) error {
	if t.meta.Sketch != nil {
		t.meta.Sketch.Add(e.Key)
	}
	if t.cl != nil {
		return t.cl.Add(e.Key, e.Seq, e.Kind, log, off)
	}
	return t.w.Add(e)
}

// finish completes the table and returns its metadata.
func (t *tableWriter) finish() (manifest.FileMeta, error) {
	n, err := t.w.Finish()
	if err != nil {
		return manifest.FileMeta{}, err
	}
	t.done = true
	t.meta.Size, t.meta.NumEntries = n, t.w.NumEntries()
	t.meta.Smallest, t.meta.Largest = t.w.KeyRange()
	return t.meta, nil
}

// abort closes and removes the file, unless finish completed it.
func (t *tableWriter) abort() {
	if !t.done {
		t.w.Abort(t.fs)
	}
}

// logNumberLocked returns the oldest commit log a memtable of the stack
// other than flushing still needs. All of them are newer than flushing's,
// the bottom of the stack. Once flushing's table is journaled, every older
// log is pinned by a table or is no longer needed: that table or one
// flushed before it holds its records, or a newer log does. Caller holds
// db.mu.
func (db *DB) logNumberLocked(flushing *memRecord) uint64 {
	var logs []uint64
	for _, r := range db.mems {
		if r != flushing {
			logs = append(append(logs, r.prev...), r.log.ID())
		}
	}
	return slices.Min(logs)
}
