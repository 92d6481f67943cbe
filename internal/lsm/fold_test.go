package lsm

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// l0Logs returns the commit logs db's L0 pins and the bytes it records
// for them.
func l0Logs(db *DB) (logs []uint64, recorded int64) {
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	for _, f := range db.version.Levels[0] {
		logs = append(logs, f.Logs()...)
		recorded += f.LogBytes
	}
	return logs, recorded
}

// checkReads compares get against want for every key of the key space.
func checkReads(t *testing.T, what string, keys int, get func([]byte) ([]byte, error), want map[string]string) {
	t.Helper()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%05d", i)
		v, err := get([]byte(k))
		w, ok := want[k]
		if !ok && !errors.Is(err, ErrNotFound) || ok && (err != nil || string(v) != w) {
			t.Fatalf("%s: Get(%s) = %q, %v; want %q (present %v)", what, k, v, err, w, ok)
		}
	}
}

// TestFoldMatchesOracle: a TRIAD store under random puts and deletes, with
// folds and merges running in the background and snapshots held across
// folds, reads what a map reads — live, through every snapshot, and after
// a reopen — and its tree stays consistent.
func TestFoldMatchesOracle(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	db := mustOpen(t, o)
	const keys = 3000
	rng := rand.New(rand.NewSource(7))
	oracle := map[string]string{}
	type held struct {
		s      *Snapshot
		frozen map[string]string
		folds  int64
	}
	var snaps []held
	heldAcrossFold := 0
	release := func(h held) {
		checkReads(t, "snapshot", keys, h.s.Get, h.frozen)
		if db.Metrics().Folds > h.folds {
			heldAcrossFold++
		}
		if err := h.s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40000; i++ {
		k := fmt.Sprintf("k%05d", rng.Intn(keys))
		switch r := rng.Intn(10); {
		case r < 7:
			v := fmt.Sprintf("%s@%d-%s", k, i, strings.Repeat("v", rng.Intn(60)))
			oracle[k] = v
			if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			delete(oracle, k)
			if err := clocked(db).Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		default:
			v, err := db.Get([]byte(k))
			if w, ok := oracle[k]; !ok && !errors.Is(err, ErrNotFound) || ok && (err != nil || string(v) != w) {
				t.Fatalf("op %d: Get(%s) = %q, %v; want %q (present %v)", i, k, v, err, w, ok)
			}
		}
		if i%4000 == 3999 {
			s, err := clocked(db).NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, held{s, maps.Clone(oracle), db.Metrics().Folds})
			if len(snaps) > 3 {
				release(snaps[0])
				snaps = snaps[1:]
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, h := range snaps {
		release(h)
	}
	checkReads(t, "live", keys, db.Get, oracle)
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Folds == 0 || m.Compactions == 0 || heldAcrossFold == 0 || m.BytesFolded == 0 {
		t.Fatalf("%d folds (%d B), %d compactions, %d snapshots held across a fold: the test needs all of them",
			m.Folds, m.BytesFolded, m.Compactions, heldAcrossFold)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, o)
	checkReads(t, "reopened", keys, db.Get, oracle)
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestFoldRacesFlush: a flush allocates its file id, a fold of the L0 it
// has not reached yet allocates a higher one and installs first, and then
// the flush installs. L0 must still read the flush's newer values first:
// it is ordered by the sequence its tables were sealed at, not by id.
func TestFoldRacesFlush(t *testing.T) {
	// Once armed, the filesystem parks the first CL index file created,
	// until release is closed.
	var armed atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	fs := vfs.NewMemFS()
	fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpCreate && strings.HasSuffix(op.Name, ".clidx") && armed.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
		return nil
	}})
	o := triadSmall(fs)
	o.TriadMem = false // every key reaches the flush
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	// Registered after the store's cleanup, so it runs first: a failure
	// while the flush is parked does not leave Close waiting on it.
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark)
	write := func(version string) {
		t.Helper()
		for i := 0; i < 200; i++ { // one memtable's worth
			if err := clocked(db).Put([]byte(fmt.Sprintf("k%05d", i)), []byte(version)); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("v0")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil { // an L1 for a merge to rewrite
		t.Fatal(err)
	}
	for r := 1; r <= compaction.L0CompactionTrigger; r++ {
		write(fmt.Sprintf("v%d", r))
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write("newest")
	armed.Store(true)
	flushed := make(chan error, 1)
	go func() { flushed <- db.Flush() }()
	<-held // the flush has its id and is creating its index
	ran, err := db.CompactOnce()
	if err != nil || !ran || db.Metrics().Folds != 1 {
		t.Fatalf("CompactOnce = %v, %v with %d folds: want the L0 folded", ran, err, db.Metrics().Folds)
	}
	unpark()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	db.versionMu.RLock()
	l0 := slices.Clone(db.version.Levels[0])
	db.versionMu.RUnlock()
	if len(l0) != 2 || l0[0].Kind != manifest.KindCLSST || l0[1].Kind != manifest.KindCLFold || l0[0].ID > l0[1].ID {
		t.Fatalf("L0 after the race: %v; want the flush, with the lower id, before the fold", l0)
	}
	for reopened := false; ; reopened = true {
		for i := 0; i < 200; i++ {
			if v, err := db.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil || string(v) != "newest" {
				t.Fatalf("Get(k%05d) = %q, %v (reopened %v); want the flush's value", i, v, err, reopened)
			}
		}
		if err := db.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if reopened {
			return
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = mustOpen(t, o)
	}
}

// TestFoldOnlyUnderDiskAndLog: L0 folds only with both TRIAD-DISK and
// TRIAD-LOG, so the baseline and the single-technique engines compact as
// they did; and in every engine CompactAll leaves no L0, so no commit log
// but those behind the memtable outlives a drain.
func TestFoldOnlyUnderDiskAndLog(t *testing.T) {
	for _, c := range []struct {
		name            string
		mem, disk, logs bool
	}{
		{"baseline", false, false, false},
		{"mem", true, false, false},
		{"disk", false, true, false},
		{"log", false, false, true},
		{"disk+log", false, true, true},
		{"triad", true, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			o := smallOptions(fs)
			o.TriadMem, o.TriadDisk, o.TriadLog = c.mem, c.disk, c.logs
			db := mustOpen(t, o)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 15000; i++ {
				if err := clocked(db).Put([]byte(fmt.Sprintf("k%05d", rng.Intn(4000))), make([]byte, 60)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if folds := db.Metrics().Folds; (folds > 0) != (c.disk && c.logs) {
				t.Fatalf("%d folds with TRIAD-DISK %v and TRIAD-LOG %v", folds, c.disk, c.logs)
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if n := db.NumLevelFiles()[0]; n != 0 {
				t.Fatalf("%d L0 files after CompactAll", n)
			}
			if logs := logFiles(t, fs); len(logs) > 2 {
				t.Fatalf("logs after CompactAll: %v, want only those behind the memtable", logs)
			}
		})
	}
}

// TestL0LogCeiling: L0 folds and merges under the rule's two conditions,
// and whatever it does, a settled L0 never pins more commit log than the
// ceiling the picker reports for the tree it settled into
// (compaction.Picker.L0LogCeiling), its tables record exactly the bytes
// their logs hold, and no fold removes a log. Random overwrites give an
// overlapping L0 whose merge rewrites L1 and L2, so its folds pay the rent
// before the price-sized ceiling binds; a sequential load past every key
// then gives a key-disjoint L0 over nothing, which merges at the floor.
func TestL0LogCeiling(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	o.TriadMem = false
	o.BaseLevelBytes = 1 << 20 // a large L1, which prices L0's merge past the floor
	o.DisableAutoCompaction = true
	o.Events = obs.NewJournal(10000)
	db := mustOpen(t, o)
	floor := compaction.MaxFilesL0 * o.CommitLogBytes
	priced := false // a settled L0 pinned more than the floor
	settle := func(round int) {
		t.Helper()
		for {
			before := logFiles(t, fs)
			folds := db.Metrics().Folds
			ran, err := db.CompactOnce()
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				break
			}
			if db.Metrics().Folds > folds {
				if after := logFiles(t, fs); !slices.Equal(after, before) {
					t.Fatalf("round %d: a fold changed the logs on disk from %v to %v", round, before, after)
				}
			}
		}
		logs, recorded := l0Logs(db)
		var onDisk int64
		for _, id := range logs {
			f, err := fs.Open(wal.FileName(id))
			if err != nil {
				t.Fatalf("round %d: L0 log %d: %v", round, id, err)
			}
			n, _ := f.Size()
			f.Close()
			onDisk += n
		}
		ceiling := db.LevelStats()[0].LogCeiling
		if onDisk != recorded || recorded > ceiling || ceiling < floor {
			t.Fatalf("round %d: L0 pins %d B of log (%d B recorded), ceiling %d (floor %d)", round, onDisk, recorded, ceiling, floor)
		}
		priced = priced || recorded > floor
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 80; round++ {
		for i := 0; i < 400; i++ {
			if err := clocked(db).Put([]byte(fmt.Sprintf("k%05d", rng.Intn(20000))), make([]byte, 60)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil { // no flush runs while L0 settles
			t.Fatal(err)
		}
		settle(round)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 400; i++ {
			if err := clocked(db).Put([]byte(fmt.Sprintf("s%05d", 400*round+i)), make([]byte, 60)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		settle(80 + round)
	}
	var folds, rentPaid, atCeiling int
	for _, e := range o.Events.Events(0) {
		folds += strings.Count(e.Detail, "L0->L0, fold")
		rentPaid += strings.Count(e.Detail, "merge: rent paid")
		atCeiling += strings.Count(e.Detail, "merge: log ceiling")
	}
	if folds == 0 || rentPaid == 0 || atCeiling == 0 || !priced || db.Metrics().Folds != int64(folds) {
		t.Fatalf("%d folds journaled (%d counted), %d merges with the rent paid, %d at the log ceiling, L0 past the floor %v: the test needs all",
			folds, db.Metrics().Folds, rentPaid, atCeiling, priced)
	}
	t.Logf("%d folds, %d merges with the rent paid, %d at the log ceiling", folds, rentPaid, atCeiling)
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestUniformOverwritesStayUnderTheCeiling: uniform overwrites under
// TRIAD with auto-compaction on. Whenever the background has caught up
// with the writes, L0 pins no more commit log than the ceiling the picker
// reports for the tree, and STATS reports what the tables record; after a
// drain the store reads what a map reads and is consistent.
func TestUniformOverwritesStayUnderTheCeiling(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	o.BaseLevelBytes = 1 << 20 // a large L1, which prices L0's merge past the floor
	db := mustOpen(t, o)
	const keys = 20000
	rng := rand.New(rand.NewSource(11))
	oracle := map[string]string{}
	var most int64
	for batch := 0; batch < 60; batch++ {
		for i := 0; i < 1000; i++ {
			k := fmt.Sprintf("k%05d", rng.Intn(keys))
			v := fmt.Sprintf("%s@%d-%s", k, batch, strings.Repeat("v", rng.Intn(60)))
			oracle[k] = v
			if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		compactWhilePicked(t, db) // catch up with the background
		_, recorded := l0Logs(db)
		l0 := db.LevelStats()[0]
		if l0.LogBytes != recorded || recorded > l0.LogCeiling {
			t.Fatalf("batch %d: L0 pins %d B of log (%d B in STATS), ceiling %d", batch, recorded, l0.LogBytes, l0.LogCeiling)
		}
		most = max(most, recorded)
	}
	m := db.Metrics()
	if m.Folds == 0 || m.MergesRentPaid == 0 || most <= compaction.MaxFilesL0*o.CommitLogBytes {
		t.Fatalf("%d folds, %d merges with the rent paid, at most %d B of log pinned: the test needs folds, paid rent and L0 past the floor",
			m.Folds, m.MergesRentPaid, most)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	checkReads(t, "drained", keys, db.Get, oracle)
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// prefoldOp is the i-th write of the store in testdata/prefold.
func prefoldOp(i int) (key, value string, del bool) {
	key = fmt.Sprintf("k%04d", (i*7919)%500)
	return key, fmt.Sprintf("v%05d-%s", i, key), i%11 == 10
}

// TestReopenStoreFromBeforeFolds: testdata/prefold was written by the
// engine before folds existed — 2400 writes of prefoldOp, a CompactAll of
// the first 1200 that left L0 non-empty, seven single-log CL-SSTables in
// L0 that record neither MaxSeq nor LogBytes, and an unflushed memtable.
// It opens with every write readable, its L0 folds and merges on top of
// tables newer ones outrank by sequence, and it drains and reopens clean.
func TestReopenStoreFromBeforeFolds(t *testing.T) {
	fs := vfs.NewMemFS()
	names, err := filepath.Glob(filepath.Join("testdata", "prefold", "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture: %v, %v", names, err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create(filepath.Base(name))
		f.Write(b)
		f.Close()
	}
	o := triadSmall(fs)
	o.MemtableBytes, o.CommitLogBytes, o.FlushThresholdBytes = 8<<10, 32<<10, 4<<10
	o.BaseLevelBytes, o.TargetFileBytes = 32<<10, 8<<10
	oracle := map[string]string{}
	apply := func(i int) {
		k, v, del := prefoldOp(i)
		if del {
			delete(oracle, k)
		} else {
			oracle[k] = v
		}
	}
	for i := 0; i < 2400; i++ {
		apply(i)
	}
	check := func(what string, db *DB) {
		t.Helper()
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("k%04d", i)
			v, err := db.Get([]byte(k))
			if w, ok := oracle[k]; !ok && !errors.Is(err, ErrNotFound) || ok && (err != nil || string(v) != w) {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q (present %v)", what, k, v, err, w, ok)
			}
		}
		if err := db.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	db.versionMu.RLock()
	legacy := 0
	for _, f := range db.version.Levels[0] {
		if f.Kind == manifest.KindCLSST && f.MaxSeq == 0 && f.LogBytes > 0 {
			legacy++
		}
	}
	db.versionMu.RUnlock()
	if legacy < 4 {
		t.Fatalf("%d legacy CL-SSTables in L0 with their log bytes recovered; the fixture should have seven", legacy)
	}
	check("opened", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	o.DisableAutoCompaction = false
	db = mustOpen(t, o)
	for i := 2400; i < 9000; i++ {
		k, v, del := prefoldOp(i)
		apply(i)
		if del {
			err = clocked(db).Delete([]byte(k))
		} else {
			err = clocked(db).Put([]byte(k), []byte(v))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check("written on", db)
	if db.Metrics().Folds == 0 {
		t.Fatal("no fold over the reopened store")
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	check("drained", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, o)
	check("reopened", db)
}

// runFoldLoad is a write load that makes TRIAD fold L0's newest run and
// leave older folds behind. base is 500 keys of valueBytes each for an L1,
// which prices L0's merge past the rent its first folds pay. ops are then
// flushes' worth of 100 writes each (a flush after every 100th): fresh keys
// spread over the key space, so every flush spans it but its HLL sketch
// barely overlaps the others' and TRIAD-DISK acts only at MaxFilesL0, with
// every fifth write an overwrite of a base key and every fifteenth a
// delete of one. A fold's index takes fewer bytes per entry than a
// flush's, so the first folds take all of L0; from the third on, runs
// leave older folds behind, stopped by the next older fold's size or, with
// the least run the depth bound takes, at it.
func runFoldLoad(seed int64, flushes, valueBytes int) (base, ops []kv) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 500; i++ {
		base = append(base, kv{fmt.Sprintf("k%03d-b", i), fmt.Sprintf("base-%03d-%0*d", i, valueBytes, i)})
	}
	for i := 0; i < runFoldWrites*flushes; i++ {
		switch k := fmt.Sprintf("k%03d", rng.Intn(500)); {
		case i%15 == 14:
			ops = append(ops, kv{k + "-b", ""})
		case i%5 == 4:
			ops = append(ops, kv{k + "-b", fmt.Sprintf("over-%05d", i)})
		default:
			ops = append(ops, kv{fmt.Sprintf("%s-%05d-%0100d", k, i, i), fmt.Sprintf("fresh-%05d", i)})
		}
	}
	return base, ops
}

// runFoldWrites is the writes of runFoldLoad between two flushes.
const runFoldWrites = 100

// runFoldOptions are the options runFoldLoad is written for: TRIAD-DISK
// and TRIAD-LOG without TRIAD-MEM, so that every write reaches its flush,
// and an L1 large enough to hold base.
func runFoldOptions(fs *vfs.MemFS) Options {
	o := triadSmall(fs)
	o.TriadMem = false
	o.BaseLevelBytes = 4 << 20
	o.DisableAutoCompaction = true
	return o
}

// compactWhilePicked runs the compactions the picker chooses until it
// chooses none.
func compactWhilePicked(t *testing.T, db *DB) {
	t.Helper()
	for {
		ran, err := db.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			return
		}
	}
}

// foldNote matches a fold's journal entry and captures its run: the
// tables folded, of how many, how many it left and, if it left any, why
// the run stopped — the depth bound, which took no more than it needed to
// leave L0 under its trigger, or not — and the next older table's index
// against the run's.
var foldNote = regexp.MustCompile(`^L0->L0, fold (\d+)->1 of (\d+), left (\d+)(?: \((depth bound; )?next older ([\d.e+-]+) MB > run ([\d.e+-]+) MB\))?, depth \d+ of \d+ files, rent \d+\.\d\d/\d+\.\d\d MB, logs \d+\.\d\d/\d+\.\d\d MiB, \d+ of \d+ entries discarded$`)

func parseMB(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

// TestFoldJournalExplainsItsRun: every fold the picker chooses says in the
// journal how many of L0's tables it folded and left, and why its run
// stopped where it did; L0 holds what the entry says it left, and the
// load shows each of the reasons: all of L0, the next older table's size,
// and the depth bound.
func TestFoldJournalExplainsItsRun(t *testing.T) {
	o := runFoldOptions(vfs.NewMemFS())
	o.Events = obs.NewJournal(1000)
	db := mustOpen(t, o)
	base, ops := runFoldLoad(1, 40, 3000)
	for _, op := range base {
		if err := op.apply(db); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, op := range ops {
		if err := op.apply(db); err != nil {
			t.Fatal(err)
		}
		if i%runFoldWrites != runFoldWrites-1 {
			continue
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		before := o.Events.Total()
		compactWhilePicked(t, db)
		if o.Events.Total() == before {
			continue
		}
		folded := -1 // the tables the round's fold left in L0
		for _, e := range o.Events.Events(int(o.Events.Total() - before)) {
			if !strings.HasPrefix(e.Detail, "L0->L0") {
				continue
			}
			t.Log(e.Detail)
			m := foldNote.FindStringSubmatch(e.Detail)
			if m == nil {
				t.Fatalf("fold entry %q does not explain its run", e.Detail)
			}
			n, _ := strconv.Atoi(m[1])
			of, _ := strconv.Atoi(m[2])
			left, _ := strconv.Atoi(m[3])
			if n+left != of || e.Files != n || n < 2 || folded >= 0 {
				t.Fatalf("entry %q over %d input files, after a fold that left %d", e.Detail, e.Files, folded)
			}
			folded = left
			switch {
			case left == 0:
				seen["all"]++
				if m[5] != "" {
					t.Fatalf("entry %q left nothing, yet names a next older table", e.Detail)
				}
			case m[5] == "":
				t.Fatalf("entry %q left %d tables and does not say why", e.Detail, left)
			case (m[4] != "") != (of-n == compaction.L0CompactionTrigger-2):
				t.Fatalf("entry %q: the depth bound leaves %d tables", e.Detail, compaction.L0CompactionTrigger-2)
			case m[4] != "":
				seen["depth bound"]++
			default:
				seen["size"]++
			}
			if next, run := parseMB(m[5]), parseMB(m[6]); next < run {
				t.Fatalf("entry %q: the next older table is smaller than the run", e.Detail)
			}
		}
		if files := db.NumLevelFiles()[0]; folded >= 0 && files != folded+1 {
			t.Fatalf("L0 holds %d tables after a fold that left %d", files, folded)
		}
	}
	t.Logf("folds by why their run stopped: %v", seen)
	if len(seen) != 3 || db.Metrics().Folds < 3 {
		t.Fatalf("folds by why their run stopped: %v; the load must show all three", seen)
	}
}
