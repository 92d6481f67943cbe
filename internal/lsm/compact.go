package lsm

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sstable"
)

// compactOnce picks and runs one compaction. It reports false when the
// tree is in shape or TRIAD-DISK defers (paper §4.2: "If the L0 and L1
// SSTables do not have enough key overlap, compaction is delayed until more
// L0 SSTables are generated"); force bypasses a deferral by running the
// merge that was deferred. Caller holds the compaction slot.
func (db *DB) compactOnce(force bool) (bool, error) {
	db.versionMu.RLock()
	job := db.picker.Pick(db.version, force)
	db.versionMu.RUnlock()
	if job == nil {
		return false, nil
	}
	if job.Deferred {
		db.met.CompactionsDeferred.Add(1)
		if !force {
			return false, nil
		}
	}
	return true, db.runCompaction(job)
}

// inCompactSlot waits on db.cond for the engine's compaction slot, runs fn
// holding it and lets it go. It returns ErrClosed, running nothing, if the
// DB closes first.
func (db *DB) inCompactSlot(fn func() error) error {
	db.mu.Lock()
	db.compactWaiters++
	for db.compactActive && !db.closed {
		db.cond.Wait()
	}
	db.compactWaiters--
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.compactActive = true
	db.mu.Unlock()
	err := fn()
	db.mu.Lock()
	db.releaseCompactLocked()
	db.mu.Unlock()
	return err
}

// CompactOnce runs at most one compaction synchronously and reports
// whether one ran (false also when TRIAD-DISK deferred). For tests;
// normal operation compacts in the background.
func (db *DB) CompactOnce() (ran bool, err error) {
	err = db.inCompactSlot(func() (err error) {
		ran, err = db.compactOnce(false)
		return err
	})
	return ran, err
}

// CompactAll drains all pending compactions synchronously, ignoring
// TRIAD-DISK deferral, and merges all of L0 into the levels below, folded
// or not and however few its files: a settled tree has no L0, so it pins
// no commit log (used to settle the tree before measurements).
func (db *DB) CompactAll() error {
	return db.inCompactSlot(func() error {
		for {
			ran, err := db.compactOnce(true)
			if err != nil || !ran {
				return err
			}
		}
	})
}

// runCompaction merges job.Inputs (level L) with job.Overlaps (levels L+1
// to job.OutputLevel) into fresh tables at the output level, discarding
// stale versions — and, with
// TRIAD-MEM, versions of keys currently held hot in the memtable (§4.3:
// "during compaction, the hot keys are skipped, similarly to the duplicate
// updates"; safe because the memtable version is strictly newer and is
// durable in the current commit log). A job the picker marked Move has
// nothing to merge with and is relinked instead (moveFile); one it marked
// Fold folds L0 instead (fold).
//
// A job with a spill also consumes job.SpillOverlaps (the level below the
// output level) and writes every surviving entry to the deeper of the
// level it came from and its route: one level below the output level
// inside the key range of a job.Spill file, the output level elsewhere.
// The outputs of both levels install as one manifest edit.
//
// The merge runs on the calling worker, as one pass over its inputs; the
// pool's parallelism comes from shards and from flushes running beside it.
func (db *DB) runCompaction(job *compaction.Job) error {
	if job.Move {
		return db.moveFile(job)
	}
	if job.Fold {
		return db.fold(job)
	}
	start := time.Now()
	defer func() { db.met.CompactionTime.Add(time.Since(start).Nanoseconds()) }()
	db.met.Compactions.Add(1)

	outLevel := job.OutputLevel
	all := append(append(append([]*manifest.FileMeta(nil), job.Inputs...), job.Overlaps...), job.SpillOverlaps...)
	m := merger{db: db, spill: job.Spill, outs: []rollingOutput{{level: outLevel}}}
	if len(job.Spill) > 0 {
		m.outs = append(m.outs, rollingOutput{level: outLevel + 1, kept: job.SpillKept})
	}

	// Resolve tables newest-first: L0 inputs are already newest-first in
	// the version; each next level's files are strictly older. The inputs
	// cannot be closed mid-compaction — only a compaction consumes live
	// tables, and the compaction slot serializes them.
	db.versionMu.RLock()
	tabs := make([]sstable.Table, 0, len(all))
	m.srcLevel = make([]int, 0, len(all))
	for _, f := range all {
		t, ok := db.tables[f.ID]
		if !ok {
			db.versionMu.RUnlock()
			return errClosedTable(f.ID)
		}
		tabs = append(tabs, t)
		m.srcLevel = append(m.srcLevel, f.Level)
	}
	lo, hi := compaction.KeyRangeOf(all)
	// Tombstones may be dropped only when nothing outside the merge can
	// still hold an older version of a key in range: nothing below the
	// output level overlaps.
	for i := range m.outs {
		o := &m.outs[i]
		o.drop = true
		for l := o.level + 1; l < manifest.NumLevels; l++ {
			if len(db.version.Overlap(l, lo, hi)) > 0 {
				o.drop = false
				break
			}
		}
		if o.level+1 < manifest.NumLevels {
			o.grandparents = db.version.Overlap(o.level+1, lo, hi)
		}
	}
	db.versionMu.RUnlock()

	var skip func([]byte) bool
	if db.opts.TriadMem && job.Level == 0 {
		db.mu.Lock()
		mem := db.liveLocked().mem
		db.mu.Unlock()
		skip = mem.ContainsAscending() // merged keys ascend
	}
	if err := m.run(tabs, skip); err != nil {
		return err
	}
	var inBytes int64
	for _, f := range all {
		inBytes += f.Size
	}
	db.met.BytesCompacted.Add(m.written)
	db.met.BytesSpilled.Add(m.spilled)
	db.compactedFrom[job.Level].Add(m.written)
	if job.Level == 0 {
		db.l0MergesInto[outLevel].Add(1)
	}
	db.met.EntriesCompacted.Add(m.merged)
	db.met.EntriesDiscarded.Add(m.discarded)

	if err := db.install(manifest.Edit{Added: m.outputs}, all, nil); err != nil {
		return err
	}
	switch job.Rule {
	case compaction.RuleRentPaid:
		db.met.MergesRentPaid.Add(1)
	case compaction.RuleLogCeiling:
		db.met.MergesLogCeiling.Add(1)
	case compaction.RuleDrain:
		db.met.MergesDrain.Add(1)
	}
	db.met.BytesCompactionRead.Add(inBytes)
	detail := fmt.Sprintf("L%d->L%d, %d outputs, %s", job.Level, outLevel, len(m.outputs), job.Why())
	if len(job.Spill) > 0 {
		detail += fmt.Sprintf(", %d L%d ranges spilled to L%d (%.1f MB)",
			len(job.Spill), outLevel, outLevel+1, float64(m.spilled)/1e6)
	}
	// The output level's score once the merge is in: above 1, the level is
	// still owed a compaction, which the next jobs pay.
	db.versionMu.RLock()
	_, scores := db.picker.Scores(db.version)
	db.versionMu.RUnlock()
	detail += fmt.Sprintf(", %d of %d entries discarded, L%d score %.2f after", m.discarded, m.merged, outLevel, scores[outLevel])
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventCompaction, Shard: db.opts.EventShard, Level: job.Level,
		Dur: time.Since(start), In: inBytes, Out: m.written,
		Files: len(all), Detail: detail,
	})
	return nil
}

// fold is the index-only merge of L0's newest run (compaction.Job.Fold,
// TRIAD-DISK with TRIAD-LOG): the inputs' indexes are merged newest-first
// into one CL-SSTable over all of their commit logs, dropping shadowed
// versions and keeping tombstones. The output is newer than every table
// the run left, so L0 keeps its order. It reads no log byte, writes no
// sorted table and retires no log — every log of an input is one of the
// output's, used or not, so no fold unpins one — and it installs like a
// merge, so an input a snapshot pins stays behind as a zombie.
func (db *DB) fold(job *compaction.Job) error {
	start := time.Now()
	defer func() { db.met.CompactionTime.Add(time.Since(start).Nanoseconds()) }()
	db.versionMu.RLock()
	tabs := make([]*sstable.CLReader, len(job.Inputs))
	for i, f := range job.Inputs {
		t, _ := db.tables[f.ID].(*sstable.CLReader)
		if t == nil {
			db.versionMu.RUnlock()
			return errClosedTable(f.ID)
		}
		tabs[i] = t
	}
	db.versionMu.RUnlock()

	meta := manifest.FileMeta{Kind: manifest.KindCLFold, Level: 0}
	var inBytes int64
	for _, f := range job.Inputs {
		meta.LogIDs = append(meta.LogIDs, f.Logs()...)
		meta.LogBytes += f.LogBytes
		meta.FoldBytes += f.FoldBytes
		meta.MaxSeq = max(meta.MaxSeq, f.MaxSeq)
		inBytes += f.Size
	}
	slices.Sort(meta.LogIDs) // distinct: each log is one flush's
	t, err := db.newTable(meta)
	if err != nil {
		return err
	}
	defer t.abort()
	its := make([]sstable.Iterator, len(tabs))
	for i, tab := range tabs {
		its[i] = tab.NewIndexIterator()
	}
	dedup := compaction.NewDedupIterator(compaction.NewMergeIterator(its), false, nil)
	defer dedup.Close()
	for dedup.Next() {
		e := dedup.Entry()
		log, off, err := tabs[dedup.Source()].Pointer(e.Value)
		if err == nil {
			err = t.add(e, log, off)
		}
		if err != nil {
			return err
		}
		// Tables from before MaxSeq have none to carry; their entries
		// still bound the fold's from below.
		t.meta.MaxSeq = max(t.meta.MaxSeq, e.Seq)
	}
	if err := dedup.Err(); err != nil {
		return err
	}
	if meta, err = t.finish(); err != nil {
		return err
	}
	meta.FoldBytes += meta.Size
	if err := db.install(manifest.Edit{Added: []manifest.FileMeta{meta}}, job.Inputs, nil); err != nil {
		return err
	}
	db.met.Folds.Add(1)
	db.met.BytesFolded.Add(meta.Size)
	discarded := dedup.Discarded()
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventCompaction, Shard: db.opts.EventShard, Level: 0,
		Dur: time.Since(start), In: inBytes, Out: meta.Size, Files: len(job.Inputs),
		Detail: fmt.Sprintf("L0->L0, %s, %d of %d entries discarded",
			job.Why(), discarded, int64(meta.NumEntries)+discarded),
	})
	return nil
}

// moveFile is the trivial move: f overlaps nothing in toLevel, so one
// manifest edit relinks it there under the same file ID. The open table,
// its cached blocks and any snapshot pins on it (refs and zombies are
// keyed by ID) are untouched; a snapshot taken before the move keeps
// reading the file through its own pinned version.
func (db *DB) moveFile(job *compaction.Job) error {
	start := time.Now()
	f := job.Inputs[0]
	moved := *f
	moved.Level = job.OutputLevel
	if err := db.install(manifest.Edit{Added: []manifest.FileMeta{moved}}, job.Inputs, nil); err != nil {
		return err
	}
	db.met.TrivialMoves.Add(1)
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventCompaction, Shard: db.opts.EventShard, Level: f.Level,
		Dur: time.Since(start), Files: 1,
		Detail: fmt.Sprintf("L%d->L%d, trivial move, %s", f.Level, moved.Level, job.Why()),
	})
	return nil
}

// merger writes one compaction's surviving entries through one rolling
// output per level, and accounts for what it wrote.
type merger struct {
	db       *DB
	srcLevel []int // the level of each input table, newest first
	// outs[0] is the job's output level; outs[1], present when the job
	// spills, the level below it, which receives the spill ranges.
	outs  []rollingOutput
	spill []*manifest.FileMeta // in key order

	// outputs are the tables written, in key order per level; written
	// their bytes (spilled: of those, the bytes written below the job's
	// output level); merged the entries the merge consumed and discarded
	// how many of those it dropped.
	outputs           []manifest.FileMeta
	written, spilled  int64
	merged, discarded int64
}

// rollingOutput is the output file a merge is writing to one level, and
// how that level is written.
type rollingOutput struct {
	level int
	drop  bool // tombstones may be dropped
	// grandparents are the files of level+1 under the merge's key range,
	// in key order: output files end where one of them ends, so a later
	// push of an output never straddles two of them.
	grandparents []*manifest.FileMeta
	// kept are the files of this level, in key order, that lie between
	// the ranges the merge writes here and that it does not consume: an
	// output ends before one, so that it never spans it.
	kept []*manifest.FileMeta

	t      *tableWriter // the file being written, if any
	gi, ki int          // grandparents[:gi] and kept[:ki] end before the last key
}

// run merges tabs, newest first, into fresh tables at the output levels.
// Keys ascend, so which level an entry goes to is found by a cursor over
// the spilled ranges. On failure it removes every file it wrote.
func (m *merger) run(tabs []sstable.Table, skip func([]byte) bool) (err error) {
	var shared sstable.Merge
	defer shared.Close()
	its := make([]sstable.Iterator, 0, len(tabs))
	for _, t := range tabs {
		it, err := t.NewMergeIterator(&shared)
		if err != nil {
			closeAll(its)
			return err
		}
		its = append(its, it)
	}
	// Tombstones are dropped below, by the level each one goes to.
	dedup := compaction.NewDedupIterator(compaction.NewMergeIterator(its), false, skip)
	defer dedup.Close()
	defer func() {
		if err != nil {
			m.abort()
		}
	}()

	var dropped int64
	si := 0 // m.spill[:si] end before the current key
	for dedup.Next() {
		e := dedup.Entry()
		o := &m.outs[0]
		if len(m.spill) > 0 {
			for si < len(m.spill) && bytes.Compare(m.spill[si].Largest, e.Key) < 0 {
				si++
			}
			spilled := si < len(m.spill) && bytes.Compare(m.spill[si].Smallest, e.Key) <= 0
			if spilled || m.srcLevel[dedup.Source()] > o.level {
				o = &m.outs[1]
			}
		}
		if e.Kind == base.KindDelete && o.drop {
			dropped++
			continue
		}
		if err := m.add(o, e); err != nil {
			return err
		}
	}
	if err := dedup.Err(); err != nil {
		return err
	}
	for i := range m.outs {
		if err := m.finish(&m.outs[i]); err != nil {
			return err
		}
	}
	m.discarded = dedup.Discarded() + dropped
	m.merged += m.discarded
	return nil
}

// add appends e to o's current file, first ending that file where a
// leveled output ends: once it holds at least 3/4 of TargetFileBytes, where
// the merge passes the end of a grandparent file; at once where it passes
// a kept file; at 1.5x the target with no such boundary in reach. Cutting
// by byte count alone leaves most outputs straddling two grandparents, and
// every later push of such a file rewrites both.
func (m *merger) add(o *rollingOutput, e base.Entry) error {
	db := m.db
	crossed, passedKept := false, false
	for o.gi < len(o.grandparents) && bytes.Compare(o.grandparents[o.gi].Largest, e.Key) < 0 {
		o.gi++
		crossed = true
	}
	for o.ki < len(o.kept) && bytes.Compare(o.kept[o.ki].Largest, e.Key) < 0 {
		o.ki++
		passedKept = true
	}
	if o.t != nil && (passedKept || crossed && o.t.w.EstimatedSize() >= db.opts.TargetFileBytes*3/4) {
		if err := m.finish(o); err != nil {
			return err
		}
	}
	if o.t == nil {
		t, err := db.newTable(manifest.FileMeta{Kind: manifest.KindSST, Level: o.level})
		if err != nil {
			return err
		}
		o.t = t
	}
	if err := o.t.add(e, 0, 0); err != nil {
		return err
	}
	if o.t.w.EstimatedSize() >= db.opts.TargetFileBytes*3/2 {
		return m.finish(o)
	}
	return nil
}

// finish completes o's current file, if any, and records it as an output.
func (m *merger) finish(o *rollingOutput) error {
	if o.t == nil {
		return nil
	}
	meta, err := o.t.finish()
	if err != nil {
		return err // abort discards o.t
	}
	o.t = nil
	m.written += meta.Size
	if o.level > m.outs[0].level {
		m.spilled += meta.Size
	}
	m.merged += int64(meta.NumEntries)
	m.outputs = append(m.outputs, meta)
	return nil
}

// abort discards the files the merge has open and removes the ones it
// finished: none of them was installed.
func (m *merger) abort() {
	for i := range m.outs {
		if t := m.outs[i].t; t != nil {
			t.abort()
			m.outs[i].t = nil
		}
	}
	for _, o := range m.outputs {
		_ = m.db.fs.Remove(sstable.FileName(o.ID))
	}
	m.outputs = nil
}

// install is the one way an edit reaches the tree: a flush's (flushing is
// the memtable it wrote), a merge's, a fold's and a trivial move's. It
// opens the tables edit adds, journals edit with the file and sequence
// counters and, for a flush, the log number it advances to, publishes the
// version and retires consumed, the files the edit deletes. A consumed
// file the edit adds again has moved and keeps its open table, its cached
// blocks and its snapshot pins. One a snapshot still pins becomes a zombie:
// it leaves the version but keeps its open table and on-disk bytes until
// the last pinning snapshot closes. The rest go at once, with the commit
// logs only they pinned. It refuses, journaling nothing, a flush's edit
// that names a byte of the flushing log the log has not synced.
func (db *DB) install(edit manifest.Edit, consumed []*manifest.FileMeta, flushing *memRecord) error {
	if flushing != nil {
		for _, f := range edit.Added {
			if slices.Contains(f.Logs(), flushing.log.ID()) && f.LogBytes > flushing.log.Synced() {
				return fmt.Errorf("%w: table %d names %d bytes of log %d, of which %d are synced",
					errInvariant, f.ID, f.LogBytes, flushing.log.ID(), flushing.log.Synced())
			}
		}
	}
	leaving := make(map[uint64]bool, len(consumed))
	for _, f := range consumed {
		edit.Deleted = append(edit.Deleted, f.ID)
		leaving[f.ID] = true
	}
	opened := make(map[uint64]sstable.Table, len(edit.Added))
	closeOpened := func() {
		for _, t := range opened {
			t.Close()
		}
	}
	for i := range edit.Added {
		f := &edit.Added[i]
		if leaving[f.ID] {
			delete(leaving, f.ID) // a move: the table is open and stays
			continue
		}
		t, err := db.openTable(f)
		if err != nil {
			closeOpened()
			return err
		}
		opened[f.ID] = t
	}
	db.mu.Lock()
	edit.NextFileID, edit.LastSeq = db.nextID, db.seq
	if flushing != nil {
		edit.LogNumber = db.logNumberLocked(flushing)
	}
	db.mu.Unlock()
	if err := db.manifest.Append(edit); err != nil {
		closeOpened()
		return err
	}
	db.versionMu.Lock()
	nv, err := db.version.Apply(edit)
	if err != nil {
		db.versionMu.Unlock()
		closeOpened()
		return err
	}
	db.version = nv
	maps.Copy(db.tables, opened)
	db.logNumber = max(db.logNumber, edit.LogNumber)
	var free []*manifest.FileMeta
	for _, f := range consumed {
		if !leaving[f.ID] {
			continue // moved
		}
		if db.refs[f.ID] > 0 {
			db.zombies[f.ID] = f
			continue
		}
		free = append(free, f)
	}
	logs, closeErr := db.dropTablesLocked(free)
	db.l0Pressure.Store(int32(db.picker.L0Pressure(nv.Levels[0])))
	db.versionMu.Unlock()
	// Wake writers stalled on L0's pressure.
	db.mu.Lock()
	db.cond.Broadcast()
	db.mu.Unlock()
	if closeErr != nil {
		return closeErr
	}
	_, err = db.removeTables(free, logs)
	return err
}

// dropTablesLocked takes files, tables that have just left both the
// version and the zombies, out of the open-table map, closing those still
// open, and returns the commit logs only they pinned and the first close
// error. Together with removeTables it is the one way a table leaves the
// tree. Caller holds versionMu.
func (db *DB) dropTablesLocked(files []*manifest.FileMeta) ([]uint64, error) {
	var err error
	for _, f := range files {
		if t, ok := db.tables[f.ID]; ok {
			if e := t.Close(); e != nil && err == nil {
				err = e
			}
			delete(db.tables, f.ID)
		}
	}
	return db.unpinnedLogsLocked(files), err
}

// unpinnedLogsLocked returns the commit logs of files, tables that have
// just left both the version and the zombies, that no table left in
// either still pins: the logs to retire with the files. Only L0 holds
// CL-SSTables. A log is shared between tables only by a fold's output and
// its inputs, so the inputs of a fold never free one, while the output's
// merge frees those no zombie input still pins and the last such zombie
// frees the rest. Caller holds versionMu, so that whoever drops a log's
// last table is the one to retire it.
func (db *DB) unpinnedLogsLocked(files []*manifest.FileMeta) []uint64 {
	var logs []uint64
	for _, f := range files {
		logs = append(logs, f.Logs()...)
	}
	if len(logs) == 0 {
		return nil
	}
	pinned := map[uint64]bool{}
	for _, f := range db.version.Levels[0] {
		for _, id := range f.Logs() {
			pinned[id] = true
		}
	}
	for _, f := range db.zombies {
		for _, id := range f.Logs() {
			pinned[id] = true
		}
	}
	slices.Sort(logs)
	logs = slices.Compact(logs)
	return slices.DeleteFunc(logs, func(id uint64) bool { return pinned[id] })
}

// removeTables evicts the blocks of files, tables dropTablesLocked took out
// of the tree, deletes their files and then retires logs, the commit logs it
// found they were the last to pin. It reports how many of the files it
// deleted before the first error.
func (db *DB) removeTables(files []*manifest.FileMeta, logs []uint64) (int, error) {
	for _, f := range files {
		db.cache.EvictTable(f.ID)
	}
	for i, f := range files {
		if err := db.fs.Remove(tableFileName(f)); err != nil {
			return i, err
		}
	}
	return len(files), db.retireLogs(logs...)
}

func closeAll(its []sstable.Iterator) {
	for _, it := range its {
		it.Close()
	}
}

type errClosedTable uint64

func (e errClosedTable) Error() string { return "lsm: table missing from cache" }
