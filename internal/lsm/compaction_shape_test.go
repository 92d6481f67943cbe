package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// ladderOptions shrinks the level targets to KiB and leaves compaction to
// the test. Its static ladder would be 32 / 320 / 3200 KiB: the third level
// opens once L2 outgrows 320 KiB, and a bottom level of ~16x BaseLevelBytes
// then sizes L2 at a quarter of that.
func ladderOptions(fs *vfs.MemFS) Options {
	o := smallOptions(fs)
	o.TargetFileBytes = 8 << 10
	o.BaseLevelBytes = 32 << 10
	o.DisableAutoCompaction = true
	return o
}

// deepOptions shrinks L1 to 6 KiB (a 6 / 60 / 600 KiB ladder) and the
// files with it, so that a few thousand small writes build a three-level
// tree and thirty thousand a four-level one.
func deepOptions(fs *vfs.MemFS) Options {
	o := ladderOptions(fs)
	o.TargetFileBytes = 3 << 10
	o.BaseLevelBytes = 6 << 10
	return o
}

// scan returns the iterator's remaining contents as "key=value" lines.
func scan(t *testing.T, it *Iterator, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for it.Next() {
		out = append(out, fmt.Sprintf("%s=%s", it.Key(), it.Value()))
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func oracleLines(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}

func sameLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %q, want %q", what, i, got[i], want[i])
		}
	}
}

// cutStats counts how the output files of the compactions seen so far
// ended.
type cutStats struct{ aligned, capped, kept int }

// checkCuts inspects the one compaction that turned before into after:
// between two consecutive output files at level L, either a file of
// level L+1 (as it was before; the merge does not touch it) ends in the
// gap and the first output had reached 3/4 of the target, or the first
// output hit the 1.5x cap, or a file of level L the compaction left in
// place lies in the gap (a spill writes disjoint ranges of L, and its
// consumed coverage of L ends there). No cut may be none of these, and no
// output may pass the cap by more than its own metadata.
func checkCuts(t *testing.T, before, after *manifest.Version, target int64, st *cutStats) {
	t.Helper()
	old := map[uint64]bool{}
	for _, files := range before.Levels {
		for _, f := range files {
			old[f.ID] = true
		}
	}
	hardCap := target * 3 / 2
	for l := 1; l < manifest.NumLevels; l++ {
		var outs, kept []*manifest.FileMeta // a moved file keeps its ID and is no output
		for _, f := range after.Levels[l] {
			if !old[f.ID] {
				outs = append(outs, f)
			}
		}
		left := map[uint64]bool{}
		for _, f := range after.Levels[l] {
			left[f.ID] = true
		}
		for _, f := range before.Levels[l] {
			if left[f.ID] {
				kept = append(kept, f)
			}
		}
		var grandparents []*manifest.FileMeta
		if l+1 < manifest.NumLevels {
			grandparents = before.Levels[l+1]
		}
		for i, f := range outs {
			if f.Size > hardCap+target/4 {
				t.Fatalf("L%d output %d is %d bytes, cap %d", l, f.ID, f.Size, hardCap)
			}
			if i+1 == len(outs) {
				continue // ended by the merge running out
			}
			if f.Size >= hardCap {
				st.capped++
				continue
			}
			between := false
			for _, g := range kept {
				if bytes.Compare(f.Largest, g.Smallest) < 0 && bytes.Compare(g.Largest, outs[i+1].Smallest) < 0 {
					between = true
					break
				}
			}
			if between {
				st.kept++
				continue
			}
			ends := false
			for _, g := range grandparents {
				if bytes.Compare(g.Largest, f.Largest) >= 0 && bytes.Compare(g.Largest, outs[i+1].Smallest) < 0 {
					ends = true
					break
				}
			}
			if !ends || f.Size < target*3/4 {
				t.Fatalf("L%d: output %d of %d (%d bytes) ends neither at a grandparent boundary, nor at the cap, nor before a kept file",
					l, i, len(outs), f.Size)
			}
			st.aligned++
		}
	}
}

// settle runs compactions one at a time until the picker is done,
// checking the tree after every install.
func settle(t *testing.T, db *DB, st *cutStats) {
	t.Helper()
	for {
		db.versionMu.RLock()
		before := db.version
		db.versionMu.RUnlock()
		if !forceOnce(t, db) {
			return
		}
		db.versionMu.RLock()
		after := db.version
		db.versionMu.RUnlock()
		if err := after.CheckInvariants(); err != nil {
			t.Fatalf("after install: %v", err)
		}
		checkCuts(t, before, after, db.opts.TargetFileBytes, st)
	}
}

// TestCompactionShapeRandomized drives a random put/delete stream, with
// snapshots held open across compactions, into a store that compacts one
// merge at a time. After every single compaction the level invariants hold
// and every output file ends at a grandparent boundary, at the cap or
// before a file its level keeps; at the end the store, and every snapshot,
// scan equal to a map oracle. The journal shows a merge by every rule — an
// L0 merge, an L0 merge spilling into L2, an L0 merge gone deep and a
// min-overlap push — and a trivial move.
func TestCompactionShapeRandomized(t *testing.T) {
	o := deepOptions(vfs.NewMemFS())
	o.Events = obs.NewJournal(4096)
	db := mustOpen(t, o)
	var cuts cutStats
	var snaps []*Snapshot

	rng := rand.New(rand.NewSource(14))
	oracle := map[string]string{}
	var pinned []map[string]string // the oracle as of each held snapshot
	release := func() {
		it, err := snaps[0].NewIterator(nil, nil)
		sameLines(t, "snapshot", scan(t, it, err), oracleLines(pinned[0]))
		if err := snaps[0].Close(); err != nil {
			t.Fatal(err)
		}
		snaps, pinned = snaps[1:], pinned[1:]
	}
	val := make([]byte, 60)
	// Over 6000 keys the tree grows to L3, and every L0 merge spills into
	// the intermediate L2. Widening the key space then opens L4: L3 turns
	// intermediate, and L2's pushes into it are chosen by min-overlap.
	// Every seventh step writes a window of 300 keys, whose L0 table
	// outweighs the L1 and L2 bytes under it and goes deep.
	for step := 0; step < 70; step++ {
		keySpace := 6000
		if step >= 40 {
			keySpace = 30000
		}
		lo, span := 0, keySpace
		if step%7 == 6 {
			lo, span = rng.Intn(keySpace-300), 300
		}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%05d", lo+rng.Intn(span))
			if rng.Intn(5) == 0 {
				delete(oracle, k)
				if err := clocked(db).Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for j := range val {
				val[j] = 'a' + byte(rng.Intn(26))
			}
			oracle[k] = string(val)
			if err := clocked(db).Put([]byte(k), val); err != nil {
				t.Fatal(err)
			}
		}
		if step%5 == 2 {
			frozen := make(map[string]string, len(oracle))
			for k, v := range oracle {
				frozen[k] = v
			}
			pinned = append(pinned, frozen)
			snap, err := clocked(db).NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
			if len(pinned) > 3 {
				release()
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		settle(t, db, &cuts)
	}
	for len(pinned) > 0 {
		release()
	}

	it, err := clocked(db).NewIterator(nil, nil)
	sameLines(t, "store", scan(t, it, err), oracleLines(oracle))
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if files := db.NumLevelFiles(); files[3] == 0 {
		t.Fatalf("tree has no L3 (%v); no compaction had grandparents to align to", files)
	}
	if cuts.aligned == 0 {
		t.Fatalf("no output ended at a grandparent boundary (%+v); check is vacuous", cuts)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("%d snapshots still open", db.OpenSnapshots())
	}
	t.Logf("cuts: %+v", cuts)
	why := map[string]bool{}
	for _, e := range o.Events.Events(0) {
		// Every compaction's entry explains itself: score, rule and
		// overlap of the pick, and what a merge dropped.
		if e.Kind != obs.EventCompaction {
			continue
		}
		if !strings.Contains(e.Detail, "score ") || !strings.Contains(e.Detail, " ratio ") {
			t.Fatalf("compaction entry without its reason: %q", e.Detail)
		}
		if strings.Contains(e.Detail, "trivial move") == strings.Contains(e.Detail, "entries discarded") {
			t.Fatalf("compaction entry is neither a move nor a merge with its discard count: %q", e.Detail)
		}
		if strings.Contains(e.Detail, "trivial move") {
			why["trivial move"] = true
			continue // each rule below must have run a merge, not a relink
		}
		for _, rule := range []string{", overlap ratio", ", min-overlap ratio", " L1 ranges spilled to L2 (", ", deep: batch "} {
			if strings.Contains(e.Detail, rule) {
				why[rule] = true
			}
		}
	}
	if len(why) != 5 {
		t.Fatalf("journal does not show all five rules (L0 overlap, min-overlap, spill and deep merges, a move): %v", why)
	}
	if db.Metrics().BytesSpilled == 0 {
		t.Fatal("no L0 merge spilled; the check of the spill's cuts is vacuous")
	}
}

// TestTrivialMoveSurvivesRecovery: a file with nothing under it is moved
// down by a manifest edit alone. The table object, its file and its bytes
// are untouched; a snapshot pinned before the move keeps reading it, and
// releasing that snapshot neither deletes nor closes it; a store reopened
// from the manifest (no Close: a crash) finds the file on its new level
// with the same contents.
func TestTrivialMoveSurvivesRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.BaseLevelBytes = 32 << 10
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)

	// Ascending keys: every L0 file is disjoint from the rest, L1 fills
	// past its target, and L2 is empty — the first push out of L1 has
	// nothing to merge with.
	oracle := map[string]string{}
	for i := 0; i < 1500; i++ {
		k, v := fmt.Sprintf("k%05d", i), fmt.Sprintf("v%05d-%060d", i, i)
		oracle[k] = v
		if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var (
		snap          *Snapshot
		before, after *manifest.Version
	)
	for {
		s, err := clocked(db).NewSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		before = db.version
		moves, written := db.Metrics().TrivialMoves, db.Metrics().BytesCompacted
		ran, err := db.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("tree settled without a trivial move")
		}
		if db.Metrics().TrivialMoves > moves {
			if db.Metrics().BytesCompacted != written {
				t.Fatal("a trivial move wrote compaction bytes")
			}
			snap, after = s, db.version
			break
		}
		s.Close()
	}
	defer snap.Close()

	var was, now *manifest.FileMeta
	for l := 1; l+1 < manifest.NumLevels && now == nil; l++ {
		for _, f := range before.Levels[l] {
			for _, g := range after.Levels[l+1] {
				if g.ID == f.ID {
					was, now = f, g
				}
			}
		}
	}
	if now == nil {
		t.Fatal("no file changed level")
	}
	if now.Level != was.Level+1 || now.Size != was.Size || now.NumEntries != was.NumEntries ||
		!bytes.Equal(now.Smallest, was.Smallest) || !bytes.Equal(now.Largest, was.Largest) {
		t.Fatalf("moved file changed: %+v -> %+v", was, now)
	}
	if err := after.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	table := db.tables[now.ID]
	contents := func(tab sstable.Table) []string {
		it, err := tab.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var out []string
		for it.Next() {
			out = append(out, fmt.Sprintf("%s=%s@%d", it.Entry().Key, it.Entry().Value, it.Entry().Seq))
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		return out
	}
	moved := contents(table)

	// The snapshot pinned the file on its old level and still reads it.
	it, err := snap.NewIterator(nil, nil)
	sameLines(t, "pinned snapshot", scan(t, it, err), oracleLines(oracle))
	if v, err := snap.Get(was.Smallest); err != nil || string(v) != oracle[string(was.Smallest)] {
		t.Fatalf("pinned Get = %q, %v", v, err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if db.tables[now.ID] != table || len(db.zombies) != 0 || db.refs[now.ID] != 0 {
		t.Fatalf("release disturbed the moved table: zombies=%d refs=%d", len(db.zombies), db.refs[now.ID])
	}
	if !fs.Exists(sstable.FileName(now.ID)) {
		t.Fatal("releasing the snapshot deleted the moved file")
	}
	if v, err := db.Get(now.Largest); err != nil || string(v) != oracle[string(now.Largest)] {
		t.Fatalf("Get through the moved table after release = %q, %v", v, err)
	}
	sameLines(t, "moved table after release", contents(table), moved)

	// Crash: reopen from what is on disk.
	db2 := mustOpen(t, o)
	var found *manifest.FileMeta
	for _, f := range db2.version.Levels[now.Level] {
		if f.ID == now.ID {
			found = f
		}
	}
	if found == nil || found.Level != now.Level || found.Size != now.Size || found.NumEntries != now.NumEntries {
		t.Fatalf("after recovery L%d holds %+v, want file %d", now.Level, found, now.ID)
	}
	sameLines(t, "moved table after recovery", contents(db2.tables[now.ID]), moved)
	if err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	it, err = clocked(db2).NewIterator(nil, nil)
	sameLines(t, "recovered store", scan(t, it, err), oracleLines(oracle))
}

// TestGetZeroAllocLevels: a lookup that every level's one candidate file
// turns away by its filter allocates nothing — finding that file is a
// binary search over the level, not a slice built per level.
func TestGetZeroAllocLevels(t *testing.T) {
	db := mustOpen(t, deepOptions(vfs.NewMemFS()))
	rng := rand.New(rand.NewSource(3))
	load := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%05d", 2*rng.Intn(6000)) // odd keys stay absent
			if err := clocked(db).Put([]byte(k), bytes.Repeat([]byte{'v'}, 40)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Absent keys that have a candidate file on all three levels. L1 and
	// L2 are small next to L3 and need not cover the same ranges after
	// any one drain, so keep loading until they do.
	covered := func() (keys [][]byte) {
		for n := 1; n < 12000 && len(keys) < 5; n += 2 {
			key := []byte(fmt.Sprintf("k%05d", n))
			if db.version.Find(1, key) != nil && db.version.Find(2, key) != nil && db.version.Find(3, key) != nil {
				keys = append(keys, key)
			}
		}
		return keys
	}
	for i := 0; i < 8; i++ {
		load(3000)
	}
	keys := covered()
	for tries := 0; len(keys) == 0 && tries < 20; tries++ {
		load(1000)
		keys = covered()
	}
	if len(keys) == 0 {
		t.Fatalf("no absent key has a candidate file on L1, L2 and L3: files per level %v", db.NumLevelFiles())
	}
	// A bloom filter may pass an absent key (and the block read
	// allocates); of a handful of keys, some key gets through every
	// filter clean.
	best := -1.0
	for _, key := range keys {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := db.getFromVersion(nil, key, nil); !errors.Is(err, ErrNotFound) {
				t.Fatalf("getFromVersion(%s) = %v", key, err)
			}
		})
		if best < 0 || allocs < best {
			best = allocs
		}
	}
	if best != 0 {
		t.Fatalf("getFromVersion allocates %.0f times per lookup on a 3-level tree, want 0", best)
	}
}

// bottomOf returns the deepest non-empty level and the bytes held above it.
func bottomOf(levels []LevelStat) (bottom int, above int64) {
	for l, ls := range levels {
		if ls.Files > 0 {
			bottom = l
		}
	}
	for _, ls := range levels[:bottom] {
		above += ls.Bytes
	}
	return bottom, above
}

// TestLadderFollowsBottomLevel overwrites a three-level tree uniformly for
// three times its key space. The drain terminates, the tree and its
// contents stay right, and because L2's target is derived from L3's size
// the levels above the bottom hold less than 0.45 of its bytes — under the
// static BaseLevelBytes x 10^n ladder L2 alone sat at 320 KiB over a
// ~550 KiB bottom (0.6-0.7), every byte of it a version L3 already had.
// The targets are a function of the manifest alone: a reopened store
// reports the same ones.
func TestLadderFollowsBottomLevel(t *testing.T) {
	fs := vfs.NewMemFS()
	o := ladderOptions(fs)
	db := mustOpen(t, o)

	const keys = 7000
	rng := rand.New(rand.NewSource(15))
	oracle := map[string]string{}
	val := make([]byte, 60)
	put := func(i int) {
		k := fmt.Sprintf("k%05d", i)
		for j := range val {
			val[j] = 'a' + byte(rng.Intn(26))
		}
		oracle[k] = string(val)
		if err := clocked(db).Put([]byte(k), val); err != nil {
			t.Fatal(err)
		}
	}
	drain := func() {
		t.Helper()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	for n, i := range rng.Perm(keys) {
		put(i)
		if n%1000 == 999 {
			drain()
		}
	}
	for n := 0; n < 3*keys; n++ {
		put(rng.Intn(keys))
		if n%1000 == 999 {
			drain()
		}
	}
	drain()

	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	it, err := clocked(db).NewIterator(nil, nil)
	sameLines(t, "store", scan(t, it, err), oracleLines(oracle))
	if debt := db.CompactionDebt(); debt != 0 {
		t.Fatalf("compaction debt %d after CompactAll", debt)
	}
	levels := db.LevelStats()
	bottom, above := bottomOf(levels)
	if bottom != 3 {
		t.Fatalf("want a three-level tree, got %+v", levels)
	}
	t.Logf("%d bytes above a bottom level of %d (%.2f)", above, levels[3].Bytes, float64(above)/float64(levels[3].Bytes))
	if limit := levels[3].Bytes * 45 / 100; above > limit {
		t.Fatalf("%d bytes above the bottom level's %d, want at most %d: %+v", above, levels[3].Bytes, limit, levels)
	}
	if levels[1].Target != o.BaseLevelBytes || levels[2].Target >= o.BaseLevelBytes*compaction.LevelMultiplier ||
		levels[3].Target != o.BaseLevelBytes*compaction.LevelMultiplier*compaction.LevelMultiplier {
		t.Fatalf("targets not sized from the bottom level: %+v", levels)
	}
	var compacted int64
	for _, ls := range levels {
		compacted += ls.CompactedBytes
	}
	if total := db.Metrics().BytesCompacted; compacted != total {
		t.Fatalf("per-level compacted bytes sum to %d, BytesCompacted = %d", compacted, total)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, o)
	for l, ls := range db.LevelStats() {
		if ls.Files != levels[l].Files || ls.Bytes != levels[l].Bytes || ls.Target != levels[l].Target {
			t.Fatalf("L%d after reopen: %+v, before: %+v", l, ls, levels[l])
		}
	}
}

// TestDeepeningRebalances: the moment the bottom level opens the next one,
// the level it leaves behind is suddenly an intermediate level with a much
// smaller target. The re-balance that follows must finish in a bounded
// number of picks, and — the files of one level being disjoint, and the
// new level empty under them — mostly by relinking files, not merging.
func TestDeepeningRebalances(t *testing.T) {
	o := ladderOptions(vfs.NewMemFS())
	o.Events = obs.NewJournal(4096)
	db := mustOpen(t, o)

	rng := rand.New(rand.NewSource(16))
	oracle := map[string]string{}
	opened := false
	var moves0, merges0 int64
	for next := 0; !opened; {
		if next > 20000 {
			t.Fatalf("L3 never opened: %+v", db.LevelStats())
		}
		for i := 0; i < 500; i, next = i+1, next+1 {
			k, v := fmt.Sprintf("k%05d", rng.Intn(1<<16)), fmt.Sprintf("%060d", next)
			oracle[k] = v
			if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for budget := 0; ; budget++ {
			if !opened && db.NumLevelFiles()[3] > 0 {
				opened = true
				m := db.Metrics()
				moves0, merges0 = m.TrivialMoves, m.Compactions
				var files int
				for _, n := range db.NumLevelFiles() {
					files += n
				}
				budget = -2 * files // every file may move once, and then some
			}
			if opened && budget > 0 {
				t.Fatalf("re-balance still running after two picks per file: %+v", db.LevelStats())
			}
			if !forceOnce(t, db) {
				break
			}
		}
	}
	m := db.Metrics()
	moves, merges := m.TrivialMoves-moves0, m.Compactions-merges0
	t.Logf("re-balance after L3 opened: %d moves, %d merges; tree %+v", moves, merges, db.LevelStats())
	if moves < 10 || moves < 3*merges {
		t.Fatalf("re-balance made %d moves and %d merges, want mostly moves", moves, merges)
	}
	levels := db.LevelStats()
	for l := 1; l < 3; l++ {
		if levels[l].Score > 1 {
			t.Fatalf("L%d still over target after the re-balance: %+v", l, levels)
		}
	}
	why := false
	for _, e := range o.Events.Events(0) {
		why = why || (strings.Contains(e.Detail, "trivial move") && strings.Contains(e.Detail, "min-overlap"))
	}
	if !why {
		t.Fatal("no journal entry explains a move as a min-overlap pick")
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	it, err := clocked(db).NewIterator(nil, nil)
	sameLines(t, "store", scan(t, it, err), oracleLines(oracle))
}

// TestMergeEventStatesOutputScore: a merge's journal entry ends with its
// output level's score once the merge installed, the score STATS shows for
// that level right after it; a merge that leaves the level over its
// target is then legible from its own entry.
func TestMergeEventStatesOutputScore(t *testing.T) {
	o := ladderOptions(vfs.NewMemFS())
	o.Events = obs.NewJournal(64)
	db := mustOpen(t, o)
	after := regexp.MustCompile(`, L(\d) score (\d+\.\d\d) after$`)
	rng := rand.New(rand.NewSource(3))
	merges := map[int]int{} // by output level
	for round := 0; round < 40; round++ {
		for i := 0; i < 300; i++ {
			if err := clocked(db).Put([]byte(fmt.Sprintf("k%05d", rng.Intn(1<<14))), []byte(fmt.Sprintf("%060d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for {
			ran, err := db.CompactOnce()
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				break
			}
			e := o.Events.Events(1)[0]
			if strings.Contains(e.Detail, "trivial move") {
				continue
			}
			m := after.FindStringSubmatch(e.Detail)
			if m == nil {
				t.Fatalf("merge entry without its output level's score: %q", e.Detail)
			}
			out, _ := strconv.Atoi(m[1])
			if want := fmt.Sprintf("%.2f", db.LevelStats()[out].Score); m[2] != want {
				t.Fatalf("%q: L%d score %s after the merge, STATS says %s", e.Detail, out, m[2], want)
			}
			merges[out]++
		}
	}
	if merges[1] == 0 || len(merges) < 2 {
		t.Fatalf("merges by output level %v; want some into L1 and some deeper", merges)
	}
}
