package lsm

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/compaction"
	"repro/internal/hll"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sstable"
)

// compactOnceLocked picks and runs one compaction under compactionMu. It
// reports false when the tree is in shape or TRIAD-DISK defers (paper
// §4.2: "If the L0 and L1 SSTables do not have enough key overlap,
// compaction is delayed until more L0 SSTables are generated"); force
// bypasses a deferral by merging whatever L0 holds.
func (db *DB) compactOnceLocked(force bool) (bool, error) {
	db.compactionMu.Lock()
	defer db.compactionMu.Unlock()
	db.versionMu.RLock()
	job := db.picker.Pick(db.version, func(f *manifest.FileMeta) *hll.Sketch {
		if t, ok := db.tables[f.ID]; ok {
			return t.Sketch()
		}
		return nil
	})
	db.versionMu.RUnlock()
	if job == nil {
		return false, nil
	}
	if job.Deferred {
		db.met.CompactionsDefer.Add(1)
		if !force {
			return false, nil
		}
		db.versionMu.RLock()
		l0 := append([]*manifest.FileMeta(nil), db.version.Levels[0]...)
		if db.opts.SizeTieredCompaction {
			job = &compaction.Job{Level: 0, OutputLevel: 0, Inputs: l0, WholeTree: true}
		} else {
			lo, hi := compaction.KeyRangeOf(l0)
			_, scores := db.picker.Scores(db.version)
			job = &compaction.Job{Level: 0, OutputLevel: 1, Inputs: l0, Overlaps: db.version.Overlap(1, lo, hi), Score: scores[0]}
		}
		db.versionMu.RUnlock()
	}
	return true, db.runCompaction(job)
}

// CompactOnce runs at most one compaction synchronously and reports
// whether one ran (false also when TRIAD-DISK deferred). For tests and
// the tuning example; normal operation compacts in the background.
func (db *DB) CompactOnce() (bool, error) {
	return db.compactOnceLocked(false)
}

// CompactAll drains all pending compactions synchronously, ignoring
// TRIAD-DISK deferral (used to settle the tree before measurements).
func (db *DB) CompactAll() error {
	for {
		ran, err := db.compactOnceLocked(true)
		if err != nil || !ran {
			return err
		}
	}
}

// runCompaction merges job.Inputs (level L) with job.Overlaps (level L+1)
// into fresh tables at L+1, discarding stale versions — and, with
// TRIAD-MEM, versions of keys currently held hot in the memtable (§4.3:
// "during compaction, the hot keys are skipped, similarly to the duplicate
// updates"; safe because the memtable version is strictly newer and is
// durable in the current commit log). A job the picker marked Move has
// nothing to merge with and is relinked instead (moveFile).
//
// A large leveled compaction is partitioned
// into disjoint key-range slices (boundaries from the input tables'
// block indexes) merged in parallel on the pool; the slices' outputs
// are concatenated — they are disjoint and in key order — and installed
// as the same single atomic manifest edit a monolithic merge produces,
// so snapshots and zombie refcounts never see a half-installed split.
func (db *DB) runCompaction(job *compaction.Job) error {
	if job.Move {
		return db.moveFile(job)
	}
	start := time.Now()
	defer func() { db.met.CompactionNanos.Add(time.Since(start).Nanoseconds()) }()
	db.met.Compactions.Add(1)

	outLevel := job.OutputLevel
	if outLevel < job.Level {
		outLevel = job.Level + 1
	}
	all := append(append([]*manifest.FileMeta(nil), job.Inputs...), job.Overlaps...)
	// Size-tiered merges (output level == input level) must stay
	// monolithic and produce exactly one table — splitting would
	// recreate same-sized files for the bucketer to merge again,
	// forever; tiers are supposed to grow.
	plan := mergePlan{shared: new(sstable.Merge), outLevel: outLevel, singleOutput: outLevel == job.Level}
	defer plan.shared.Close()

	// Resolve tables newest-first: L0 inputs are already newest-first in
	// the version; the next level's files are strictly older. The inputs
	// cannot be closed mid-compaction — only a compaction consumes live
	// tables, and compactionMu serializes them.
	db.versionMu.RLock()
	plan.tabs = make([]sstable.Table, 0, len(all))
	for _, f := range all {
		t, ok := db.tables[f.ID]
		if !ok {
			db.versionMu.RUnlock()
			return errClosedTable(f.ID)
		}
		plan.tabs = append(plan.tabs, t)
	}
	lo, hi := compaction.KeyRangeOf(all)
	// Tombstones may be dropped only when nothing outside the merge can
	// still hold an older version of a key in range: for leveled output,
	// nothing below the output level overlaps; for a size-tiered merge,
	// only when the whole tree participates.
	if plan.singleOutput {
		plan.drop = job.WholeTree
	} else {
		plan.drop = true
		for l := outLevel + 1; l < manifest.NumLevels; l++ {
			if len(db.version.Overlap(l, lo, hi)) > 0 {
				plan.drop = false
				break
			}
		}
		if outLevel+1 < manifest.NumLevels {
			plan.grandparents = db.version.Overlap(outLevel+1, lo, hi)
		}
	}
	db.versionMu.RUnlock()

	if db.opts.TriadMem && job.Level == 0 {
		db.mu.Lock()
		mem := db.mem
		db.mu.Unlock()
		// Memtable reads are lock-free, so concurrent subcompaction
		// slices may share this closure.
		plan.skip = func(key []byte) bool {
			_, ok := mem.Get(key)
			return ok
		}
	}

	var inBytes int64
	for _, f := range all {
		inBytes += f.Size
	}
	slices := []compaction.Slice{{}}
	if !plan.singleOutput {
		maxSub := db.opts.MaxSubcompactions
		if maxSub <= 0 {
			maxSub = db.pool.Workers()
		}
		// Don't split below about one output file of input per slice —
		// the split overhead would outweigh the parallelism.
		if perSlice := int(inBytes / db.opts.TargetFileBytes); perSlice < maxSub {
			maxSub = perSlice
		}
		slices = compaction.SplitJob(plan.tabs, maxSub)
	}

	results := make([]sliceResult, len(slices))
	if len(slices) == 1 {
		results[0] = db.runSlice(&plan, slices[0])
	} else {
		fns := make([]func(), len(slices))
		for i := range slices {
			i := i
			fns[i] = func() { results[i] = db.runSlice(&plan, slices[i]) }
		}
		db.sched.RunSlices(db.opts.EventShard, fns)
	}

	var outputs []manifest.FileMeta
	var written, merged, discarded int64
	var firstErr error
	for _, r := range results {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		outputs = append(outputs, r.outputs...)
		written += r.written
		merged += r.merged
		discarded += r.discarded
	}
	if firstErr != nil {
		// Every slice aborted its own partial writer; finished slices'
		// outputs were never installed, so remove their files.
		for _, o := range outputs {
			f := o
			_ = db.removeTableFiles(&f)
		}
		return firstErr
	}
	db.met.BytesCompacted.Add(written)
	db.compactedFrom[job.Level].Add(written)
	db.met.EntriesCompacted.Add(merged)
	db.met.EntriesDiscarded.Add(discarded)

	if err := db.installCompaction(all, outputs); err != nil {
		return err
	}
	db.met.BytesCompactionRead.Add(inBytes)
	detail := fmt.Sprintf("L%d->L%d, %d outputs, %s", job.Level, outLevel, len(outputs), job.Why())
	if plan.singleOutput {
		detail = fmt.Sprintf("size-tiered %d-way, %d outputs", len(all), len(outputs))
	}
	detail += fmt.Sprintf(", %d of %d entries discarded", discarded, merged)
	if len(slices) > 1 {
		detail += fmt.Sprintf(", %d subcompactions", len(slices))
	}
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventCompaction, Shard: db.opts.EventShard, Level: job.Level,
		Dur: time.Since(start), In: inBytes, Out: written,
		Files: len(all), Detail: detail,
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
	db.mu.Lock()
	edit := manifest.Edit{
		Deleted: []uint64{f.ID}, Added: []manifest.FileMeta{moved},
		NextFileID: db.nextID, LastSeq: db.seq,
	}
	db.mu.Unlock()
	if err := db.manifest.Append(edit); err != nil {
		return err
	}
	db.versionMu.Lock()
	nv, err := db.version.Apply(edit)
	if err == nil {
		db.version = nv
	}
	db.versionMu.Unlock()
	if err != nil {
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

// mergePlan is what every slice of one compaction shares.
type mergePlan struct {
	shared       *sstable.Merge  // what the slices' iterators share
	tabs         []sstable.Table // newest source first
	outLevel     int
	singleOutput bool              // size-tiered: never roll the output
	drop         bool              // tombstones may be dropped
	skip         func([]byte) bool // TRIAD-MEM hot keys (nil: none)
	// grandparents are the files of outLevel+1 under the merge's key
	// range, in key order: output files end where one of them ends, so
	// a later push of an output never straddles two of them.
	grandparents []*manifest.FileMeta
}

// sliceResult is one subcompaction slice's contribution: its output
// tables in key order, the bytes it wrote, and how many entries its
// merge consumed and how many of those it dropped.
type sliceResult struct {
	outputs           []manifest.FileMeta
	written           int64
	merged, discarded int64
	err               error
}

// runSlice merges one key-range slice of the plan's tables into fresh
// tables at the output level. With the zero Slice it is the whole
// (monolithic) compaction.
//
// A leveled output file ends where the merge passes the end of a
// grandparent file, once it holds at least 3/4 of TargetFileBytes; with
// no such boundary in reach it is cut at 1.5x. Cutting by byte count
// alone leaves most outputs straddling two grandparents, and every later
// push of such a file rewrites both.
func (db *DB) runSlice(p *mergePlan, slc compaction.Slice) sliceResult {
	merge, err := compaction.NewSliceMerge(p.shared, p.tabs, slc)
	if err != nil {
		return sliceResult{err: err}
	}
	dedup := compaction.NewDedupIterator(merge, p.drop, p.skip)
	defer dedup.Close()

	var (
		res   sliceResult
		w     *sstable.Writer
		first []byte
		count uint64
		gi    int // grandparents[:gi] end before the current key
	)
	alignedMin, hardCap := db.opts.TargetFileBytes*3/4, db.opts.TargetFileBytes*3/2
	finish := func() error {
		if w == nil {
			return nil
		}
		n, err := w.Finish()
		if err != nil {
			w.Abort(db.fs)
			return err
		}
		res.written += n
		res.merged += int64(count)
		res.outputs = append(res.outputs, manifest.FileMeta{
			ID:         w.ID(),
			Kind:       manifest.KindSST,
			Level:      p.outLevel,
			Size:       n,
			NumEntries: count,
			Smallest:   first,
			Largest:    append([]byte(nil), w.LastKey()...),
		})
		w = nil
		return nil
	}
	for dedup.Next() {
		e := dedup.Entry()
		crossed := false
		for gi < len(p.grandparents) && bytes.Compare(p.grandparents[gi].Largest, e.Key) < 0 {
			gi++
			crossed = true
		}
		if crossed && w != nil && w.EstimatedSize() >= alignedMin {
			if err := finish(); err != nil {
				res.err = err
				return res
			}
		}
		if w == nil {
			db.mu.Lock()
			id := db.allocFileID()
			db.mu.Unlock()
			w, err = sstable.NewWriter(db.fs, id, db.opts.BlockBytes)
			if err != nil {
				res.err = err
				return res
			}
			if p.outLevel > 0 {
				w.OmitSketch() // only L0 sketches are ever consulted
			}
			first = append([]byte(nil), e.Key...)
			count = 0
		}
		if err := w.Add(e); err != nil {
			w.Abort(db.fs)
			res.err = err
			return res
		}
		count++
		if !p.singleOutput && w.EstimatedSize() >= hardCap {
			if err := finish(); err != nil {
				res.err = err
				return res
			}
		}
	}
	if err := dedup.Err(); err != nil {
		if w != nil {
			w.Abort(db.fs)
		}
		res.err = err
		return res
	}
	res.err = finish()
	res.discarded = dedup.Discarded()
	res.merged += res.discarded
	return res
}

// installCompaction journals the edit, swaps the version, and removes the
// consumed files (for CL-SSTables: the index and its pinned commit log).
func (db *DB) installCompaction(consumed []*manifest.FileMeta, outputs []manifest.FileMeta) error {
	newTables := make(map[uint64]sstable.Table, len(outputs))
	for i := range outputs {
		t, err := db.openTable(&outputs[i])
		if err != nil {
			for _, nt := range newTables {
				nt.Close()
			}
			return err
		}
		newTables[outputs[i].ID] = t
	}
	db.mu.Lock()
	edit := manifest.Edit{Added: outputs, NextFileID: db.nextID, LastSeq: db.seq}
	db.mu.Unlock()
	for _, f := range consumed {
		edit.Deleted = append(edit.Deleted, f.ID)
	}
	if err := db.manifest.Append(edit); err != nil {
		for _, nt := range newTables {
			nt.Close()
		}
		return err
	}
	db.versionMu.Lock()
	nv, err := db.version.Apply(edit)
	if err != nil {
		db.versionMu.Unlock()
		for _, nt := range newTables {
			nt.Close()
		}
		return err
	}
	db.version = nv
	var closeErr error
	// A consumed file a snapshot still pins becomes a zombie: it leaves
	// the version but keeps its open table and on-disk bytes until the
	// last pinning snapshot closes. Unpinned files go immediately.
	var free []*manifest.FileMeta
	for _, f := range consumed {
		if db.refs[f.ID] > 0 {
			db.zombies[f.ID] = f
			continue
		}
		if t, ok := db.tables[f.ID]; ok {
			if err := t.Close(); err != nil && closeErr == nil {
				closeErr = err
			}
			delete(db.tables, f.ID)
		}
		free = append(free, f)
	}
	for id, t := range newTables {
		db.tables[id] = t
	}
	db.l0Count.Store(int32(len(nv.Levels[0])))
	db.versionMu.Unlock()
	// Wake writers stalled on the L0 file count.
	db.mu.Lock()
	db.cond.Broadcast()
	db.mu.Unlock()
	if closeErr != nil {
		return closeErr
	}
	for _, f := range free {
		db.cache.EvictTable(f.ID)
	}
	for _, f := range free {
		if err := db.removeTableFiles(f); err != nil {
			return err
		}
	}
	return nil
}

// removeTableFiles deletes a table's on-disk files (for CL-SSTables: the
// index and the commit log it pins).
func (db *DB) removeTableFiles(f *manifest.FileMeta) error {
	switch f.Kind {
	case manifest.KindCLSST:
		if err := db.fs.Remove(sstable.CLIndexFileName(f.ID)); err != nil {
			return err
		}
		return db.retireLogs(f.LogID)
	default:
		return db.fs.Remove(sstable.FileName(f.ID))
	}
}

func closeAll(its []sstable.Iterator) {
	for _, it := range its {
		it.Close()
	}
}

type errClosedTable uint64

func (e errClosedTable) Error() string { return "lsm: table missing from cache" }
