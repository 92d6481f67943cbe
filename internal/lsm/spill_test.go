package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// spillReady loads a baseline store with random keys until its tree is
// three levels deep (L2 intermediate) and most of it, over the whole key
// space, is in L3, then writes
// overwrites and deletes — one key in two — until the merge the picker
// chooses is an L0 merge of one of those writes' files into level out that
// spills, running the merges before it. It returns the store, its options,
// the oracle and that merge, not yet run. For out 2, a merge gone deep,
// the writes fall in a window of a tenth of the keys, so that an L0 table
// outweighs the L1 and L2 bytes under it.
func spillReady(t *testing.T, fs *vfs.MemFS, out int) (*DB, Options, map[string]string, *compaction.Job) {
	t.Helper()
	const keys = 6000
	o := deepOptions(fs)
	db := mustOpen(t, o)
	rng := rand.New(rand.NewSource(1))
	oracle := map[string]string{}
	val := make([]byte, 60)
	write := func(lo, span int, del bool) {
		k := fmt.Sprintf("k%05d", lo+rng.Intn(span))
		if del {
			delete(oracle, k)
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			return
		}
		for j := range val {
			val[j] = 'a' + byte(rng.Intn(26))
		}
		oracle[k] = string(val)
		if err := db.Put([]byte(k), val); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; ; round++ {
		levels := db.LevelStats()
		l3 := db.version.Levels[3]
		if levels[3].Bytes > levels[1].Bytes+levels[2].Bytes &&
			string(l3[0].Smallest) < "k00100" && string(l3[len(l3)-1].Largest) > "k05900" {
			break
		}
		if round == 100 {
			t.Fatalf("no third level holding most of the tree: %+v", levels)
		}
		for i := 0; i < 1000; i++ {
			write(0, keys, false)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		// Compact what the picker owes, leaving L0 below its trigger.
		for ran := true; ran; {
			var err error
			if ran, err = db.CompactOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.mu.Lock()
	loaded := db.nextID
	db.mu.Unlock()
	for round := 0; round < 100; round++ {
		if job := pickNext(db); job != nil {
			if job.Level == 0 && job.OutputLevel == out && len(job.Spill) > 0 && job.Inputs[0].ID >= loaded {
				return db, o, oracle, job
			}
			runJob(t, db, job)
			continue
		}
		lo, span := 0, keys
		if out > 1 {
			lo, span = rng.Intn(keys-keys/4), keys/4
		}
		for i := 0; i < 300; i++ {
			write(lo, span, rng.Intn(2) == 0)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("no L0 merge into L%d spilled: %+v", out, db.LevelStats())
	return nil, o, nil, nil
}

// pickNext is the job compactOnceLocked(false) would run next in a tree
// without TRIAD-DISK (which needs sketches and may defer).
func pickNext(db *DB) *compaction.Job {
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	return db.picker.Pick(db.version, nil, false)
}

func runJob(t *testing.T, db *DB, job *compaction.Job) {
	t.Helper()
	db.compactionMu.Lock()
	defer db.compactionMu.Unlock()
	if err := db.runCompaction(job); err != nil {
		t.Fatal(err)
	}
}

// entryAt returns the entry for key in the level-l file that holds its
// range, if any.
func entryAt(t *testing.T, db *DB, l int, key []byte) (base.Entry, bool) {
	t.Helper()
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	f := db.version.Find(l, key)
	if f == nil {
		return base.Entry{}, false
	}
	e, found, _, err := db.tables[f.ID].Get(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, found
}

// tableKeys lists the keys of f's table.
func tableKeys(t *testing.T, db *DB, f *manifest.FileMeta) []string {
	t.Helper()
	it, err := db.tables[f.ID].NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var keys []string
	for it.Next() {
		keys = append(keys, string(it.Entry().Key))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestSpillKeepsTombstones: a spilled L0 merge sends a tombstone inside a
// spilled range to L2 and the ones on either side of it to L1, and drops
// none of them, because L3 still holds an older value of each key.
func TestSpillKeepsTombstones(t *testing.T) {
	db, _, oracle, job := spillReady(t, vfs.NewMemFS(), 1)
	defer db.Close()

	spilled := func(key []byte) bool {
		for _, s := range job.Spill {
			if bytes.Compare(s.Smallest, key) <= 0 && bytes.Compare(key, s.Largest) <= 0 {
				return true
			}
		}
		return false
	}
	// A delete the merge carries, shadowing a value in L3.
	var dels [][]byte
	for i := 0; i < 6000; i++ {
		k := []byte(fmt.Sprintf("k%05d", i))
		if _, ok := oracle[string(k)]; ok {
			continue
		}
		e, inBatch, _, err := db.tables[job.Inputs[0].ID].Get(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if old, inL3 := entryAt(t, db, 3, k); inBatch && e.Kind == base.KindDelete && inL3 && old.Kind == base.KindSet {
			dels = append(dels, k)
		}
	}
	// Around one spilled range: the nearest such delete below it, one
	// inside it and the nearest above it — the range with the most of the
	// three (an end range has nothing on its outer side).
	type check struct {
		key   []byte
		level int // where its tombstone goes
	}
	var checks []check
	for _, s := range job.Spill {
		var below, inside, above []byte
		for _, k := range dels {
			switch {
			case bytes.Compare(k, s.Smallest) < 0:
				if !spilled(k) {
					below = k
				}
			case bytes.Compare(k, s.Largest) <= 0:
				inside = k
			case above == nil && !spilled(k):
				above = k
			}
		}
		var cs []check
		for _, c := range []check{{below, 1}, {inside, 2}, {above, 1}} {
			if c.key != nil {
				cs = append(cs, c)
			}
		}
		if inside != nil && len(cs) > len(checks) {
			checks = cs
		}
	}
	if len(checks) < 2 {
		t.Fatalf("no spilled range with a shadowing delete inside and one outside (%d deletes, %d ranges)", len(dels), len(job.Spill))
	}

	runJob(t, db, job)
	for _, c := range checks {
		if v, err := db.Get(c.key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) = %q, %v after the spill; want it deleted", c.key, v, err)
		}
		if e, ok := entryAt(t, db, c.level, c.key); !ok || e.Kind != base.KindDelete {
			t.Fatalf("%s: L%d holds %+v (found %v), want its tombstone", c.key, c.level, e, ok)
		}
		if e, ok := entryAt(t, db, 3, c.key); !ok || e.Kind != base.KindSet {
			t.Fatalf("%s: the older value left L3; the check is vacuous", c.key)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator(nil, nil)
	sameLines(t, "store", scan(t, it, err), oracleLines(oracle))
}

// TestDeepSpillKeepsTombstones is TestSpillKeepsTombstones for an L0 merge
// gone deep, into L2, that spills into the bottom level L3: a tombstone
// outside the spilled ranges stays in L2, because L3 still holds an older
// value of its key, while one inside a spilled range reaches the bottom
// level together with the older value, and both are dropped.
func TestDeepSpillKeepsTombstones(t *testing.T) {
	db, _, oracle, job := spillReady(t, vfs.NewMemFS(), 2)
	defer db.Close()
	if files := db.NumLevelFiles(); files[4] != 0 {
		t.Fatalf("L3 is not the bottom level: %v", files)
	}
	spilled := func(key []byte) bool {
		for _, s := range job.Spill {
			if bytes.Compare(s.Smallest, key) <= 0 && bytes.Compare(key, s.Largest) <= 0 {
				return true
			}
		}
		return false
	}
	// An L3 file under a spilled range may reach past it; the merge
	// rewrites it whole.
	rewritten := func(key []byte) bool {
		f := db.version.Find(3, key)
		for _, g := range job.SpillOverlaps {
			if g.ID == f.ID {
				return true
			}
		}
		return false
	}
	// The deletes the merge carries that shadow a value in L3: outside
	// the spilled ranges, over an L3 file the merge leaves, and inside.
	var kept, dropped [][]byte
	for i := 0; i < 6000; i++ {
		k := []byte(fmt.Sprintf("k%05d", i))
		if _, ok := oracle[string(k)]; ok {
			continue
		}
		e, inBatch, _, err := db.tables[job.Inputs[0].ID].Get(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if old, inL3 := entryAt(t, db, 3, k); inBatch && e.Kind == base.KindDelete && inL3 && old.Kind == base.KindSet {
			switch {
			case spilled(k):
				dropped = append(dropped, k)
			case !rewritten(k):
				kept = append(kept, k)
			}
		}
	}
	if len(kept) == 0 || len(dropped) == 0 {
		t.Fatalf("%d shadowing deletes outside the %d spilled ranges and %d inside; the check is vacuous", len(kept), len(job.Spill), len(dropped))
	}

	t.Logf("%s: %d shadowing deletes kept in L2, %d dropped in L3", job.Why(), len(kept), len(dropped))
	runJob(t, db, job)
	for _, k := range append(append([][]byte(nil), kept...), dropped...) {
		if v, err := db.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) = %q, %v after the deep merge; want it deleted", k, v, err)
		}
	}
	for _, k := range kept {
		if e, ok := entryAt(t, db, 2, k); !ok || e.Kind != base.KindDelete {
			t.Fatalf("%s: L2 holds %+v (found %v), want its tombstone", k, e, ok)
		}
		if e, ok := entryAt(t, db, 3, k); !ok || e.Kind != base.KindSet {
			t.Fatalf("%s: the older value left L3; the check is vacuous", k)
		}
	}
	for _, k := range dropped {
		for l := 1; l <= 3; l++ {
			if e, ok := entryAt(t, db, l, k); ok {
				t.Fatalf("%s: L%d holds %+v; the bottom level drops a tombstone with the value it shadows", k, l, e)
			}
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator(nil, nil)
	sameLines(t, "store", scan(t, it, err), oracleLines(oracle))
}

// TestSpillSurvivesRecovery: a spilled merge installs its outputs on L1 and
// L2 as one manifest edit, and moves no key read from L2 up. A snapshot pinned before it keeps reading the
// consumed files, which are deleted once it closes; a store reopened from
// the manifest (no Close: a crash) finds the same files on both levels and
// the same contents.
func TestSpillSurvivesRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	db, o, oracle, job := spillReady(t, fs, 1)
	defer db.Close()

	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	frozen := oracleLines(oracle)
	// Writes the snapshot must not see, one of them inside a spilled range.
	for _, k := range [][]byte{job.Spill[0].Smallest, []byte("k00000"), []byte("zz-new")} {
		oracle[string(k)] = "after-" + string(k)
		if err := db.Put(k, []byte(oracle[string(k)])); err != nil {
			t.Fatal(err)
		}
	}

	// Keys the merge reads from L2 alone must stay there: an entry goes to
	// the deeper of its source level and its route, never up.
	newer := map[string]bool{}
	for _, f := range append(append([]*manifest.FileMeta(nil), job.Inputs...), job.Overlaps...) {
		for _, k := range tableKeys(t, db, f) {
			newer[k] = true
		}
	}
	var l2only []string
	outside := 0
	for _, f := range job.SpillOverlaps {
		for _, k := range tableKeys(t, db, f) {
			if !newer[k] {
				l2only = append(l2only, k)
				if k < string(job.Spill[0].Smallest) || k > string(job.Spill[len(job.Spill)-1].Largest) {
					outside++
				}
			}
		}
	}
	if outside == 0 {
		t.Fatal("no L2 key outside the spilled ranges; the check is vacuous")
	}

	before := db.version
	runJob(t, db, job)
	after := db.version
	for _, k := range l2only {
		if _, ok := entryAt(t, db, 1, []byte(k)); ok {
			t.Fatalf("%s, read from L2 only, moved up to L1", k)
		}
		if _, ok := entryAt(t, db, 2, []byte(k)); !ok {
			t.Fatalf("%s, read from L2 only, is no longer in L2", k)
		}
	}
	if err := after.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().BytesSpilled == 0 {
		t.Fatal("the merge spilled nothing")
	}
	old := map[uint64]bool{}
	for _, files := range before.Levels {
		for _, f := range files {
			old[f.ID] = true
		}
	}
	outputs := map[int]int{}
	for l, files := range after.Levels {
		for _, f := range files {
			if !old[f.ID] {
				outputs[l]++
			}
		}
	}
	if outputs[1] == 0 || outputs[2] == 0 || len(outputs) != 2 {
		t.Fatalf("new files per level %v, want outputs on L1 and L2 only", outputs)
	}
	consumed := append(append(append([]*manifest.FileMeta(nil), job.Inputs...), job.Overlaps...), job.SpillOverlaps...)
	if len(db.zombies) != len(consumed) {
		t.Fatalf("%d zombies, want the %d consumed files pinned by the snapshot", len(db.zombies), len(consumed))
	}

	it, err := snap.NewIterator(nil, nil)
	sameLines(t, "pinned snapshot", scan(t, it, err), frozen)
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if len(db.zombies) != 0 {
		t.Fatalf("%d zombies after the snapshot closed", len(db.zombies))
	}
	for _, f := range consumed {
		if fs.Exists(sstable.FileName(f.ID)) {
			t.Fatalf("consumed file %d still on disk", f.ID)
		}
	}
	it, err = db.NewIterator(nil, nil)
	sameLines(t, "store", scan(t, it, err), oracleLines(oracle))

	// Crash: reopen from what is on disk.
	db2 := mustOpen(t, o)
	for l := 1; l <= 2; l++ {
		var was, now []uint64
		for _, f := range after.Levels[l] {
			was = append(was, f.ID)
		}
		for _, f := range db2.version.Levels[l] {
			now = append(now, f.ID)
		}
		if fmt.Sprint(was) != fmt.Sprint(now) {
			t.Fatalf("L%d after recovery holds %v, want %v", l, now, was)
		}
	}
	if err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	it, err = db2.NewIterator(nil, nil)
	sameLines(t, "recovered store", scan(t, it, err), oracleLines(oracle))
}

// TestDebtCountsL0AtDataSize: under TRIAD-LOG an L0 file is a CL-SSTable
// whose size is its index alone, about a tenth of the data it stands for.
// The compaction debt counts L0 as its entries times the tree's measured
// bytes per entry, which is what the merge will write.
func TestDebtCountsL0AtDataSize(t *testing.T) {
	o := triadSmall(vfs.NewMemFS())
	// L0 files large enough that the index is not mostly its fixed HLL
	// sketch, and no level below L0 owing anything.
	o.MemtableBytes, o.CommitLogBytes = 512<<10, 2<<20
	o.BaseLevelBytes = 64 << 20
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)

	val := bytes.Repeat([]byte{'v'}, 200)
	n := 0
	// Each batch's keys interleave with every other batch's, so that the
	// L0 tables overlap and L0 is at its trigger by read depth too.
	batch := func() {
		t.Helper()
		for i := 0; i < 1000; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%06d", n%1000*8+n/1000)), val); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		batch()
	}
	if err := db.CompactAll(); err != nil { // an L1 of SSTables to measure
		t.Fatal(err)
	}
	first := n
	for i := 0; i < 4; i++ {
		batch()
	}
	levels := db.LevelStats()
	if levels[0].Files != 4 || levels[1].Files == 0 {
		t.Fatalf("want four L0 files over an L1: %+v", levels)
	}
	data := int64(n-first) * int64(len("k000000")+len(val))
	debt := db.CompactionDebt()
	index := levels[0].Bytes - levels[0].LogBytes
	t.Logf("L0: %d index bytes for %d data bytes; debt %d", index, data, debt)
	if index*3 > data {
		t.Fatalf("L0 index bytes %d not far below the data %d; the check is vacuous", index, data)
	}
	if debt < data || debt > data*13/10 {
		t.Fatalf("debt %d, want the L0 data %d plus at most 30%% of table overhead", debt, data)
	}
}
