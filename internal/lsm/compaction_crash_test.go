package lsm

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// unlistedTables lists the table files in fs that no level of db's version
// lists.
func unlistedTables(t *testing.T, db *DB, fs vfs.FS) []string {
	t.Helper()
	listed := map[string]bool{}
	db.versionMu.RLock()
	for _, files := range db.version.Levels {
		for _, f := range files {
			listed[tableFileName(f)] = true
		}
	}
	db.versionMu.RUnlock()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(name, "%d.", &id); err != nil {
			continue
		}
		if (name == sstable.FileName(id) || name == sstable.CLIndexFileName(id)) && !listed[name] {
			out = append(out, name)
		}
	}
	return out
}

// compactAllCrashPoints opens a store with options, fills it with load,
// then runs one CompactAll and crashes it after every change it makes to
// the filesystem. Each image must pass crashImage.check with the oracle
// load returns acknowledged and nothing in flight: it reopens consistent,
// scanning equal to the oracle. done, if set, then looks at the store
// before it closes. It returns the journal entries of the CompactAll,
// oldest first, and how many images it checked.
func compactAllCrashPoints(t *testing.T, options func(*vfs.MemFS) Options, load func(db *DB) map[string]string, done func(db *DB, fs *vfs.MemFS)) ([]obs.Event, int) {
	t.Helper()
	fs := vfs.NewMemFS()
	o := options(fs)
	o.DisableAutoCompaction = true // the one CompactAll is all the compaction there is
	o.Events = obs.NewJournal(4096)
	db := mustOpen(t, o)
	defer db.Close()
	acked := load(db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	images := 0
	failed := false
	imageChanges(fs, func(what string, image *vfs.MemFS) {
		if failed {
			return
		}
		images++
		if err := (crashImage{n: images, what: what, fs: image, o: o, acked: acked}).check(t); err != nil {
			failed = true
			t.Errorf("crash after %q, image %d: %v", what, images, err)
		}
	})
	before := o.Events.Total()
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	fs.SetHooks(vfs.Hooks{})
	events := o.Events.Events(int(o.Events.Total() - before))
	for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
		events[i], events[j] = events[j], events[i]
	}
	if done != nil {
		done(db, fs)
	}
	return events, images
}

// TestCompactionCrashPoints crashes one CompactAll after every change it
// makes to the filesystem and reopens each image (compactAllCrashPoints).
// A crash between a merge's output writes and its manifest edit leaves
// those outputs behind, and one between the edit and the removal of its
// inputs leaves the inputs: recovery must delete both, or they leak for
// the life of the store. The first run merges a TRIAD tree's L0; the
// second drains a leveled tree through every kind of install below L0 —
// an L0 merge that spills into L2 (two levels in one edit), a min-overlap
// push that merges, and a trivial move — and the journal must show each.
// The third drains an L0 that outweighs the L1 and L2 under it: the
// picker's merge goes deep, into L2, and spills into the bottom level L3
// (three levels in one edit), under a snapshot and past a key TRIAD-MEM
// keeps hot in the memtable (deepCrashPoints).
func TestCompactionCrashPoints(t *testing.T) {
	t.Run("triad", func(t *testing.T) {
		events, images := compactAllCrashPoints(t, triadSmall, func(db *DB) map[string]string {
			oracle := map[string]string{}
			rng := rand.New(rand.NewSource(27))
			for i := 0; i < 6000; i++ {
				k, v := fmt.Sprintf("k%05d", rng.Intn(3000)), fmt.Sprintf("v%06d", i)
				oracle[k] = v
				if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				if i%500 == 499 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			return oracle
		}, nil)
		merges := 0
		for _, e := range events {
			if e.Kind == obs.EventCompaction && strings.HasPrefix(e.Detail, "L0->L1") {
				merges++
			}
		}
		t.Logf("%d images, %d compaction events", images, len(events))
		if merges == 0 {
			t.Fatalf("CompactAll merged no L0: %v", events)
		}
	})
	t.Run("spill-merge-move", func(t *testing.T) {
		options := func(fs *vfs.MemFS) Options {
			o := ladderOptions(fs)
			o.BlockBytes = 4 << 10     // fewer writes per table, fewer images
			o.BaseLevelBytes = 8 << 10 // L3 opens within ten drains
			return o
		}
		events, images := compactAllCrashPoints(t, options, func(db *DB) map[string]string {
			oracle := map[string]string{}
			rng := rand.New(rand.NewSource(14))
			val := make([]byte, 60)
			put := func(k string) {
				for j := range val {
					val[j] = 'a' + byte(rng.Intn(26))
				}
				oracle[k] = string(val)
				if err := clocked(db).Put([]byte(k), val); err != nil {
					t.Fatal(err)
				}
			}
			// Random overwrites of 3000 keys, compacted after every flush,
			// build a tree down to L3 with L2 intermediate.
			fresh := 0
			for step := 0; step < 12; step++ {
				if step >= 10 {
					// Left for the imaged CompactAll: more overwrites, which
					// overfill L1 (a spill) and push files that overlap L2
					// (merges), and fresh keys above all the others, which
					// reach levels with nothing under them (moves).
					for i := 0; i < 200; i++ {
						put(fmt.Sprintf("k%05d", 10000+fresh))
						fresh++
					}
				}
				for i := 0; i < 300; i++ {
					k := fmt.Sprintf("k%05d", rng.Intn(3000))
					if rng.Intn(5) == 0 {
						delete(oracle, k)
						if err := clocked(db).Delete([]byte(k)); err != nil {
							t.Fatal(err)
						}
						continue
					}
					put(k)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if step < 10 {
					if err := db.CompactAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if files := db.NumLevelFiles(); files[3] == 0 {
				t.Fatalf("no L3 before the imaged CompactAll: %v", files)
			}
			return oracle
		}, nil)
		seen := map[string]bool{}
		for _, e := range events {
			switch {
			case e.Kind != obs.EventCompaction:
			case strings.Contains(e.Detail, " ranges spilled to "):
				seen["spill"] = true
			case strings.Contains(e.Detail, "trivial move"):
				seen["move"] = true
			case strings.Contains(e.Detail, "min-overlap ratio"):
				seen["merge"] = true
			}
		}
		t.Logf("%d images, %d compaction events", images, len(events))
		if len(seen) != 3 {
			for _, e := range events {
				t.Log(e.Detail)
			}
			t.Fatalf("the imaged CompactAll ran %v; it must spill, merge by min-overlap and move", seen)
		}
	})
	t.Run("deep", deepCrashPoints)
}

// deepCrashPoints is TestCompactionCrashPoints/deep: the deep merge's
// images, and what it leaves. A key that L1, L2 and L3 each hold a version
// of, under ranges the merge consumes on all three levels, is made hot
// before the last flush: TRIAD-MEM keeps it in the memtable, and the merge
// skips all three versions. Every image reopens with the hot key at its
// latest value (crashImage.check). A snapshot taken before the hot writes
// pins the merge's inputs: they become zombies, its reads still find the
// key's old value in them, and they are deleted when it closes.
func deepCrashPoints(t *testing.T) {
	options := func(fs *vfs.MemFS) Options {
		o := ladderOptions(fs)
		o.BlockBytes = 4 << 10      // fewer writes per table, fewer images
		o.BaseLevelBytes = 16 << 10 // L3 opens within twenty drains
		o.TriadMem = true
		o.TriadDisk = true // L0 merges all its tables at once: one batch
		// Only the test's Flush calls seal a memtable, so that no flush
		// runs beside the writes and the tree is the same on every run.
		o.MemtableBytes, o.CommitLogBytes = 1<<20, 4<<20
		return o
	}
	var (
		snap             *Snapshot
		hot, old         string
		inputs, consumed []*manifest.FileMeta
	)
	events, images := compactAllCrashPoints(t, options, func(db *DB) map[string]string {
		oracle := map[string]string{}
		rng := rand.New(rand.NewSource(14))
		val := make([]byte, 60)
		put := func(k string) {
			for j := range val {
				val[j] = 'a' + byte(rng.Intn(26))
			}
			oracle[k] = string(val)
			if err := clocked(db).Put([]byte(k), val); err != nil {
				t.Fatal(err)
			}
		}
		// Random overwrites of 3000 keys, compacted after every flush,
		// build a tree down to L3 with L2 intermediate; smaller flushes,
		// which L2 outweighs, then fill L1, and three more full flushes
		// are left in L0, outweighing L1 and L2.
		const build, fill = 20, 3
		for step := 0; step < build+fill+3; step++ {
			n := 300
			if step >= build && step < build+fill {
				n = 40
			}
			for i := 0; i < n; i++ {
				put(fmt.Sprintf("k%05d", rng.Intn(3000)))
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if step < build+fill {
				if err := db.CompactAll(); err != nil {
					t.Fatal(err)
				}
			}
		}
		db.versionMu.RLock()
		job := db.picker.Pick(db.version, true)
		db.versionMu.RUnlock()
		if job == nil || job.Level != 0 || job.OutputLevel != 2 || len(job.Spill) == 0 || len(db.version.Levels[4]) > 0 {
			t.Fatalf("the drain's first merge is %+v over levels %v, want L0 gone deep into L2 and spilling into the bottom level L3", job, db.NumLevelFiles())
		}
		inputs = append(append(append([]*manifest.FileMeta(nil), job.Inputs...), job.Overlaps...), job.SpillOverlaps...)
		// The hot key: one in a spilled range with a version on L1, L2
		// and L3.
		for _, s := range job.Spill {
			for _, k := range tableKeys(t, db, s) {
				_, inL1 := entryAt(t, db, 1, []byte(k))
				_, inL3 := entryAt(t, db, 3, []byte(k))
				if inL1 && inL3 {
					hot = k
					break
				}
			}
			if hot != "" {
				break
			}
		}
		if hot == "" {
			t.Fatal("no key of a spilled range has a version on L1, L2 and L3")
		}
		old = oracle[hot]
		s, err := clocked(db).NewSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() }) // closed in done, unless the run fails first
		snap = s
		// Hot: updated far more often than the memtable's mean. The
		// other keys are cold, and the last flush writes them to L0.
		for i := 0; i < 40; i++ {
			put(hot)
			put(fmt.Sprintf("k%05d", rng.Intn(3000)))
		}
		return oracle
	}, func(db *DB, fs *vfs.MemFS) {
		if _, inMem := liveRecord(db).mem.Get([]byte(hot)); !inMem {
			t.Fatalf("%s is not in the memtable: TRIAD-MEM did not keep it hot", hot)
		}
		for l := 1; l < manifest.NumLevels; l++ {
			if e, ok := entryAt(t, db, l, []byte(hot)); ok {
				t.Fatalf("L%d still holds %s (%+v): the merge did not skip the hot key", l, hot, e)
			}
		}
		if v, err := snap.Get([]byte(hot)); err != nil || string(v) != old {
			t.Fatalf("snapshot Get(%s) = %q, %v; want its old value %q from the zombies", hot, v, err, old)
		}
		db.versionMu.RLock()
		for _, f := range inputs {
			if f.Level > 0 && db.zombies[f.ID] != nil {
				consumed = append(consumed, f)
			}
		}
		db.versionMu.RUnlock()
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
		if len(db.zombies) != 0 {
			t.Fatalf("%d zombies after the snapshot closed", len(db.zombies))
		}
		for _, f := range consumed {
			if fs.Exists(sstable.FileName(f.ID)) {
				t.Fatalf("consumed L%d file %d still on disk", f.Level, f.ID)
			}
		}
	})
	levels := map[int]bool{}
	for _, f := range consumed {
		levels[f.Level] = true
	}
	deep := false
	for _, e := range events {
		deep = deep || strings.HasPrefix(e.Detail, "L0->L2") && strings.Contains(e.Detail, ", deep: batch ") && strings.Contains(e.Detail, " L2 ranges spilled to L3 (")
	}
	t.Logf("%d images, %d compaction events, hot key %s, %d zombies on levels %v", images, len(events), hot, len(consumed), levels)
	if !deep || len(levels) != 3 {
		for _, e := range events {
			t.Log(e.Detail)
		}
		t.Fatalf("the journal shows no deep merge spilling into L3 (%v), or the snapshot pinned inputs on levels %v, not L1, L2 and L3", deep, levels)
	}
}

// TestRunFoldCrashPoints crashes a TRIAD run through the folds the picker
// chooses — folds of L0's newest run, which leave older folds behind — and
// the merge of the L0 they built. From the first fold on, it images every
// change the flushes, folds and merge make to the filesystem (the writes'
// own log appends are TestLogRetirementCrashPoints') and reopens each
// image (crashImage.check): consistent, with no table unlisted, every
// acknowledged write at its latest value and L0 newest first. Some image
// must hold two folds in L0. A snapshot is held across the run fold that
// first leaves a fold behind and across the merge: the fold's inputs it
// pins stay as zombies and keep their logs, which go only with the
// snapshot.
func TestRunFoldCrashPoints(t *testing.T) {
	fs := vfs.NewMemFS()
	o := runFoldOptions(fs)
	o.SyncWAL = true
	o.BlockBytes = 4 << 10 // fewer writes per table, fewer images
	db := mustOpen(t, o)
	base, ops := runFoldLoad(2, 30, 800)
	acked := map[string]string{}
	for _, op := range base {
		if err := op.apply(db); err != nil {
			t.Fatal(err)
		}
		acked[op.key] = op.value
	}
	if err := db.CompactAll(); err != nil { // an L1 to price L0's merge
		t.Fatal(err)
	}
	l0Folds := func(db *DB) int {
		db.versionMu.RLock()
		defer db.versionMu.RUnlock()
		n := 0
		for _, f := range db.version.Levels[0] {
			if f.Kind == manifest.KindCLFold {
				n++
			}
		}
		return n
	}
	images, mostFolds := 0, 0
	failed := false
	// imaged runs change, imaging it once L0 has been folded.
	imaged := func(change func() error) {
		t.Helper()
		if db.Metrics().Folds == 0 {
			if err := change(); err != nil {
				t.Fatal(err)
			}
			return
		}
		imageChanges(fs, func(what string, image *vfs.MemFS) {
			if failed {
				return
			}
			images++
			img := crashImage{n: images, what: what, fs: image, o: o, acked: acked,
				inspect: func(db *DB) { mostFolds = max(mostFolds, l0Folds(db)) }}
			if err := img.check(t); err != nil {
				failed = true
				t.Errorf("crash after %q, image %d: %v", what, images, err)
			}
		})
		defer fs.SetHooks(vfs.Hooks{})
		if err := change(); err != nil {
			t.Fatal(err)
		}
	}

	var snap *Snapshot
	var frozen map[string]string
	var zombies []*manifest.FileMeta
	for i, op := range ops {
		if err := op.apply(db); err != nil {
			t.Fatal(err)
		}
		acked[op.key] = op.value
		if i%runFoldWrites != runFoldWrites-1 {
			continue
		}
		imaged(db.Flush)
		db.versionMu.RLock()
		l0 := db.version.Levels[0]
		job := db.picker.Pick(db.version, false)
		db.versionMu.RUnlock()
		if snap == nil && job != nil && job.Fold && len(job.Inputs) < len(l0) {
			var err error
			if snap, err = clocked(db).NewSnapshot(); err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			frozen, zombies = maps.Clone(acked), job.Inputs
		}
		imaged(func() error { compactWhilePicked(t, db); return nil })
		if l0Folds(db) >= 2 {
			break
		}
	}
	if snap == nil || l0Folds(db) < 2 {
		t.Fatalf("%d folds in L0, snapshot held %v: the run must fold a run that leaves a fold behind", l0Folds(db), snap != nil)
	}
	imaged(db.CompactAll)
	m := db.Metrics()
	t.Logf("%d images, %d folds, %d drain merges, at most %d folds in an image's L0", images, m.Folds, m.MergesDrain, mostFolds)
	if mostFolds < 2 || m.MergesDrain == 0 {
		t.Fatalf("at most %d folds in an image's L0, %d drain merges: the images must hold two folds, then their merge", mostFolds, m.MergesDrain)
	}

	// The merge consumed the fold's output, not the inputs the snapshot
	// pins: their logs are still on disk, and read through.
	for _, f := range zombies {
		if !fs.Exists(wal.FileName(f.LogID)) {
			t.Fatalf("log %d of zombie table %d retired under the snapshot", f.LogID, f.ID)
		}
	}
	for k, want := range frozen {
		got, err := snap.Get([]byte(k))
		if want == "" && !errors.Is(err, ErrNotFound) || want != "" && (err != nil || string(got) != want) {
			t.Fatalf("snapshot Get(%q) = %q, %v; want %q", k, got, err, want)
		}
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range zombies {
		if fs.Exists(wal.FileName(f.LogID)) {
			t.Fatalf("log %d of zombie table %d outlived the snapshot", f.LogID, f.ID)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
