package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bgsched"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// deepOptions shrinks the level targets so a few thousand small writes
// build a four-level tree, and leaves compaction to the test.
func deepOptions(fs *vfs.MemFS) Options {
	o := smallOptions(fs)
	o.TargetFileBytes = 8 << 10
	o.BaseLevelBytes = 32 << 10
	o.LevelMultiplier = 4
	o.DisableAutoCompaction = true
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
type cutStats struct{ aligned, capped, unaligned int }

// checkCuts inspects the one compaction that turned before into after:
// between two consecutive output files at level L, either a file of
// level L+1 (as it was before; the merge does not touch it) ends in the
// gap and the first output had reached 3/4 of the target, or the first
// output hit the 1.5x cap. At most slack cuts may be neither (the joints
// between subcompaction slices fall where the block index says). No output may pass the cap by more
// than its own metadata.
func checkCuts(t *testing.T, before, after *manifest.Version, target int64, slack int, st *cutStats) {
	t.Helper()
	old := map[uint64]bool{}
	for _, files := range before.Levels {
		for _, f := range files {
			old[f.ID] = true
		}
	}
	hardCap := target * 3 / 2
	for l := 1; l < manifest.NumLevels; l++ {
		var outs []*manifest.FileMeta // a moved file keeps its ID and is no output
		for _, f := range after.Levels[l] {
			if !old[f.ID] {
				outs = append(outs, f)
			}
		}
		var grandparents []*manifest.FileMeta
		if l+1 < manifest.NumLevels {
			grandparents = before.Levels[l+1]
		}
		unaligned := 0
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
			ends := false
			for _, g := range grandparents {
				if bytes.Compare(g.Largest, f.Largest) >= 0 && bytes.Compare(g.Largest, outs[i+1].Smallest) < 0 {
					ends = true
					break
				}
			}
			if ends && f.Size >= target*3/4 {
				st.aligned++
			} else {
				unaligned++
			}
		}
		if unaligned > slack {
			t.Fatalf("L%d: %d of %d outputs end neither at a grandparent boundary nor at the cap (allowed %d)",
				l, unaligned, len(outs), slack)
		}
		st.unaligned += unaligned
	}
}

// settle runs compactions one at a time until the picker is done,
// checking the tree after every install.
func settle(t *testing.T, db *DB, slack int, st *cutStats) {
	t.Helper()
	for {
		db.versionMu.RLock()
		before := db.version
		db.versionMu.RUnlock()
		ran, err := db.compactOnceLocked(true)
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			return
		}
		db.versionMu.RLock()
		after := db.version
		db.versionMu.RUnlock()
		if err := after.CheckInvariants(); err != nil {
			t.Fatalf("after install: %v", err)
		}
		checkCuts(t, before, after, db.opts.TargetFileBytes, slack, st)
	}
}

// TestCompactionShapeRandomized drives the same random put/delete stream,
// with snapshots held open across compactions, into a store that splits
// compactions into up to three slices and one that never splits. After
// every single compaction the level invariants hold and every output
// file ends at a grandparent boundary or at the cap; at the end both
// stores, and every snapshot, scan equal to a map oracle.
func TestCompactionShapeRandomized(t *testing.T) {
	pool := bgsched.NewPool(3)
	defer pool.Close()
	type side struct {
		db    *DB
		slack int
		cuts  cutStats
		snaps []*Snapshot
	}
	open := func(maxSub int) *side {
		o := deepOptions(vfs.NewMemFS())
		o.Scheduler = pool
		o.MaxSubcompactions = maxSub
		o.Events = obs.NewJournal(4096)
		return &side{db: mustOpen(t, o), slack: maxSub - 1}
	}
	sides := []*side{open(3), open(1)}
	for _, s := range sides {
		defer s.db.Close()
	}

	rng := rand.New(rand.NewSource(14))
	oracle := map[string]string{}
	var pinned []map[string]string // the oracle as of each held snapshot
	release := func() {
		want := oracleLines(pinned[0])
		for i, s := range sides {
			it, err := s.snaps[0].NewIterator(nil, nil)
			sameLines(t, fmt.Sprintf("side %d snapshot", i), scan(t, it, err), want)
			if err := s.snaps[0].Close(); err != nil {
				t.Fatal(err)
			}
			s.snaps = s.snaps[1:]
		}
		pinned = pinned[1:]
	}
	val := make([]byte, 60)
	for step := 0; step < 40; step++ {
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%05d", rng.Intn(6000))
			if rng.Intn(5) == 0 {
				delete(oracle, k)
				for _, s := range sides {
					if err := s.db.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			for j := range val {
				val[j] = 'a' + byte(rng.Intn(26))
			}
			oracle[k] = string(val)
			for _, s := range sides {
				if err := s.db.Put([]byte(k), val); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%5 == 2 {
			frozen := make(map[string]string, len(oracle))
			for k, v := range oracle {
				frozen[k] = v
			}
			pinned = append(pinned, frozen)
			for _, s := range sides {
				snap, err := s.db.NewSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				s.snaps = append(s.snaps, snap)
			}
			if len(pinned) > 3 {
				release()
			}
		}
		for _, s := range sides {
			if err := s.db.Flush(); err != nil {
				t.Fatal(err)
			}
			settle(t, s.db, s.slack, &s.cuts)
		}
	}
	for len(pinned) > 0 {
		release()
	}

	want := oracleLines(oracle)
	for i, s := range sides {
		it, err := s.db.NewIterator(nil, nil)
		sameLines(t, fmt.Sprintf("side %d", i), scan(t, it, err), want)
		if err := s.db.CheckConsistency(); err != nil {
			t.Fatalf("side %d: %v", i, err)
		}
		if files := s.db.NumLevelFiles(); files[3] == 0 {
			t.Fatalf("side %d: tree has no L3 (%v); no compaction had grandparents to align to", i, files)
		}
		if s.cuts.aligned == 0 {
			t.Fatalf("side %d: no output ended at a grandparent boundary (%+v); check is vacuous", i, s.cuts)
		}
		if s.db.OpenSnapshots() != 0 {
			t.Fatalf("side %d: %d snapshots still open", i, s.db.OpenSnapshots())
		}
	}
	t.Logf("cuts: sliced %+v, monolithic %+v", sides[0].cuts, sides[1].cuts)
	if sides[1].cuts.unaligned != 0 {
		t.Fatalf("monolithic side made %d unaligned cuts", sides[1].cuts.unaligned)
	}
	split := false
	for _, e := range sides[0].db.opts.Events.Events(0) {
		split = split || strings.Contains(e.Detail, "subcompactions")
	}
	if !split {
		t.Fatal("no compaction split into subcompactions; the differential is vacuous")
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
	defer db.Close()

	// Ascending keys: every L0 file is disjoint from the rest, L1 fills
	// past its target, and L2 is empty — the first push out of L1 has
	// nothing to merge with.
	oracle := map[string]string{}
	for i := 0; i < 1500; i++ {
		k, v := fmt.Sprintf("k%05d", i), fmt.Sprintf("v%05d-%060d", i, i)
		oracle[k] = v
		if err := db.Put([]byte(k), []byte(v)); err != nil {
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
		s, err := db.NewSnapshot()
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
	defer db2.Close()
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
	it, err = db2.NewIterator(nil, nil)
	sameLines(t, "recovered store", scan(t, it, err), oracleLines(oracle))
}

// TestGetZeroAllocLevels: a lookup that every level's one candidate file
// turns away by its filter allocates nothing — finding that file is a
// binary search over the level, not a slice built per level.
func TestGetZeroAllocLevels(t *testing.T) {
	db := mustOpen(t, deepOptions(vfs.NewMemFS()))
	defer db.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 24000; i++ {
		k := fmt.Sprintf("k%05d", 2*rng.Intn(6000)) // odd keys stay absent
		if err := db.Put([]byte(k), bytes.Repeat([]byte{'v'}, 40)); err != nil {
			t.Fatal(err)
		}
		if i%3000 == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	files := db.NumLevelFiles()
	if files[1] == 0 || files[2] == 0 || files[3] == 0 {
		t.Fatalf("want a tree with L1, L2 and L3, got %v", files)
	}
	// A bloom filter may pass an absent key (and the block read
	// allocates); of a handful of keys that have a candidate file on all
	// three levels, some key gets through every filter clean.
	best, tried := -1.0, 0
	for n := 1; n < 12000 && tried < 5; n += 2 {
		key := []byte(fmt.Sprintf("k%05d", n))
		if db.version.Find(1, key) == nil || db.version.Find(2, key) == nil || db.version.Find(3, key) == nil {
			continue
		}
		tried++
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := db.getFromVersion(nil, key, nil); !errors.Is(err, ErrNotFound) {
				t.Fatalf("getFromVersion(%s) = %v", key, err)
			}
		})
		if best < 0 || allocs < best {
			best = allocs
		}
	}
	if tried == 0 {
		t.Fatal("no absent key has a candidate file on L1, L2 and L3")
	}
	if best != 0 {
		t.Fatalf("getFromVersion allocates %.0f times per lookup on a 3-level tree, want 0", best)
	}
}
