package manifest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vfs"
)

func fm(id uint64, level int, lo, hi string) FileMeta {
	return FileMeta{ID: id, Kind: KindSST, Level: level, Size: 100, Smallest: []byte(lo), Largest: []byte(hi)}
}

func TestApplyAddDelete(t *testing.T) {
	v := NewVersion()
	v1, err := v.Apply(Edit{Added: []FileMeta{fm(1, 0, "a", "m"), fm(2, 0, "c", "z"), fm(3, 1, "a", "f")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v1.Levels[0]) != 2 || len(v1.Levels[1]) != 1 {
		t.Fatalf("level sizes = %d, %d", len(v1.Levels[0]), len(v1.Levels[1]))
	}
	// L0 is newest-first.
	if v1.Levels[0][0].ID != 2 || v1.Levels[0][1].ID != 1 {
		t.Fatalf("L0 order: %d, %d", v1.Levels[0][0].ID, v1.Levels[0][1].ID)
	}
	// Original version untouched (immutability).
	if len(v.Levels[0]) != 0 {
		t.Fatal("Apply mutated the input version")
	}
	v2, err := v1.Apply(Edit{Deleted: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Levels[0]) != 1 || v2.Levels[0][0].ID != 2 {
		t.Fatalf("delete left %v", v2.Levels[0])
	}
}

func TestApplyDeleteUnknownFails(t *testing.T) {
	v := NewVersion()
	if _, err := v.Apply(Edit{Deleted: []uint64{42}}); err == nil {
		t.Fatal("deleting unknown file succeeded")
	}
}

func TestApplyBadLevelFails(t *testing.T) {
	v := NewVersion()
	if _, err := v.Apply(Edit{Added: []FileMeta{fm(1, NumLevels, "a", "b")}}); err == nil {
		t.Fatal("adding to out-of-range level succeeded")
	}
}

func TestDeeperLevelsSortedByKey(t *testing.T) {
	v := NewVersion()
	v1, _ := v.Apply(Edit{Added: []FileMeta{fm(1, 1, "m", "p"), fm(2, 1, "a", "c"), fm(3, 1, "x", "z")}})
	got := []string{string(v1.Levels[1][0].Smallest), string(v1.Levels[1][1].Smallest), string(v1.Levels[1][2].Smallest)}
	if got[0] != "a" || got[1] != "m" || got[2] != "x" {
		t.Fatalf("L1 order: %v", got)
	}
	if err := v1.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariantsDetectsOverlap(t *testing.T) {
	v := NewVersion()
	v1, _ := v.Apply(Edit{Added: []FileMeta{fm(1, 1, "a", "m"), fm(2, 1, "k", "z")}})
	if err := v1.CheckInvariants(); err == nil {
		t.Fatal("overlapping L1 files passed invariant check")
	}
}

func TestOverlap(t *testing.T) {
	v := NewVersion()
	v1, _ := v.Apply(Edit{Added: []FileMeta{fm(1, 1, "a", "f"), fm(2, 1, "g", "m"), fm(3, 1, "n", "z")}})
	got := v1.Overlap(1, []byte("e"), []byte("h"))
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("Overlap = %v", got)
	}
	if len(v1.Overlap(1, []byte("fa"), []byte("fb"))) != 0 {
		t.Fatal("gap query returned files")
	}
	// Point query.
	if got := v1.Overlap(1, []byte("n"), []byte("n")); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("point Overlap = %v", got)
	}
	// The result aliases the level; an append must not write through it.
	got = v1.Overlap(1, []byte("a"), []byte("b"))
	_ = append(got, &FileMeta{ID: 99})
	if v1.Levels[1][1].ID != 2 {
		t.Fatal("append to an Overlap result clobbered the version")
	}
}

// TestLookupMatchesLinearScan: on random sorted, disjoint levels the
// binary-searched Find and Overlap agree with a linear scan over every
// file, for keys inside files, on their bounds, in the gaps between
// them, before the first and after the last — as points and as ranges.
func TestLookupMatchesLinearScan(t *testing.T) {
	key := func(n int) []byte { return []byte(fmt.Sprintf("%05d", n)) }
	linear := func(files []*FileMeta, lo, hi []byte) []*FileMeta {
		var out []*FileMeta
		for _, f := range files {
			if bytes.Compare(f.Smallest, hi) <= 0 && bytes.Compare(f.Largest, lo) >= 0 {
				out = append(out, f)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		// Files [lo, hi] separated by gaps of 1..5 keys, starting past 0
		// so that some keys sort before the first file; some files hold
		// a single key, and trial 0 is the empty level.
		var edit Edit
		next := 1 + rng.Intn(5)
		for i, n := 0, trial%12; i < n; i++ {
			lo := next
			hi := lo + rng.Intn(4)
			edit.Added = append(edit.Added, FileMeta{ID: uint64(i + 1), Kind: KindSST, Level: 2, Size: 1, Smallest: key(lo), Largest: key(hi)})
			next = hi + 2 + rng.Intn(5)
		}
		v, err := NewVersion().Apply(edit)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		files := v.Levels[2]
		for a := 0; a <= next+1; a++ {
			var want *FileMeta
			if in := linear(files, key(a), key(a)); len(in) == 1 {
				want = in[0]
			} else if len(in) > 1 {
				t.Fatalf("trial %d: key %d lies in %d files", trial, a, len(in))
			}
			if got := v.Find(2, key(a)); got != want {
				t.Fatalf("trial %d: Find(%d) = %v, want %v", trial, a, got, want)
			}
			for b := a; b <= next+1; b += 1 + rng.Intn(3) {
				got, want := v.Overlap(2, key(a), key(b)), linear(files, key(a), key(b))
				if len(got) != len(want) {
					t.Fatalf("trial %d: Overlap(%d,%d) = %d files, want %d", trial, a, b, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: Overlap(%d,%d)[%d] = file %d, want %d", trial, a, b, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
	}
}

// TestLevelSize: the per-level byte totals follow every kind of edit
// (add, delete, move under the same ID), survive Clone, and
// CheckInvariants notices a total that has drifted from its files.
func TestLevelSize(t *testing.T) {
	v := NewVersion()
	v1, _ := v.Apply(Edit{Added: []FileMeta{fm(1, 1, "a", "b"), fm(2, 1, "c", "d"), fm(3, 0, "a", "z")}})
	if v1.LevelSize(0) != 100 || v1.LevelSize(1) != 200 || v1.LevelSize(2) != 0 {
		t.Fatalf("sizes = %v", v1.sizes)
	}
	moved := fm(2, 2, "c", "d")
	v2, err := v1.Apply(Edit{Deleted: []uint64{2, 3}, Added: []FileMeta{moved, fm(4, 1, "e", "f")}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.LevelSize(0) != 0 || v2.LevelSize(1) != 200 || v2.LevelSize(2) != 100 {
		t.Fatalf("sizes after move = %v", v2.sizes)
	}
	if v1.LevelSize(1) != 200 || v1.LevelSize(2) != 0 {
		t.Fatalf("Apply changed the version it was applied to: %v", v1.sizes)
	}
	c := v2.Clone()
	if c.sizes != v2.sizes {
		t.Fatalf("Clone sizes = %v, want %v", c.sizes, v2.sizes)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.sizes[1]++
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a level total that differs from its files")
	}
}

func TestLogPersistRecover(t *testing.T) {
	fs := vfs.NewMemFS()
	l, v, state, err := OpenLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	if state.NextFileID != 0 || len(v.Levels[0]) != 0 {
		t.Fatal("fresh log not empty")
	}
	if err := l.Append(Edit{Added: []FileMeta{fm(1, 0, "a", "m")}, NextFileID: 2, LastSeq: 10}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Edit{Added: []FileMeta{fm(2, 0, "c", "z")}, NextFileID: 3, LastSeq: 20}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Edit{Deleted: []uint64{1}, Added: []FileMeta{fm(3, 1, "a", "m")}, NextFileID: 4, LastSeq: 30}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, v2, state2, err := OpenLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	if state2.NextFileID != 4 || state2.LastSeq != 30 {
		t.Fatalf("recovered state = %+v", state2)
	}
	if len(v2.Levels[0]) != 1 || v2.Levels[0][0].ID != 2 {
		t.Fatalf("recovered L0 = %v", v2.Levels[0])
	}
	if len(v2.Levels[1]) != 1 || v2.Levels[1][0].ID != 3 {
		t.Fatalf("recovered L1 = %v", v2.Levels[1])
	}
}

// TestLogRefusesAfterFailedWrite: an edit whose sync fails may still be in
// the journal, so the journal refuses the next edit, here the same one
// retried, which would not replay after it.
func TestLogRefusesAfterFailedWrite(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _, _, err := OpenLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Edit{Added: []FileMeta{fm(1, 0, "a", "m")}, NextFileID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.roll(); err != nil { // so that the next append writes its edit at once
		t.Fatal(err)
	}
	fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpSync {
			return vfs.ErrInjected
		}
		return nil
	}})
	merge := Edit{Deleted: []uint64{1}, Added: []FileMeta{fm(2, 1, "a", "m")}, NextFileID: 3}
	if err := l.Append(merge); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("append with a failing sync: %v", err)
	}
	fs.SetHooks(vfs.Hooks{})
	if err := l.Append(merge); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("append after a failed one: %v, want the first failure", err)
	}
	l.Close()
	if _, v, _, err := OpenLog(fs); err != nil {
		t.Fatalf("reopen: %v", err)
	} else if len(v.Levels[0]) != 0 || len(v.Levels[1]) != 1 || v.Levels[1][0].ID != 2 {
		t.Fatalf("recovered %v, want the merge applied once", levelIDs(v))
	}
}

func TestLogRecoverCLSST(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _, _, _ := OpenLog(fs)
	meta := fm(5, 0, "a", "z")
	meta.Kind = KindCLSST
	meta.LogID = 3
	l.Append(Edit{Added: []FileMeta{meta}, NextFileID: 6})
	l.Close()
	_, v, _, err := OpenLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	got := v.Levels[0][0]
	if got.Kind != KindCLSST || got.LogID != 3 {
		t.Fatalf("recovered CL meta = %+v", got)
	}
}

func TestLogTornTailTolerated(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _, _, _ := OpenLog(fs)
	l.Append(Edit{Added: []FileMeta{fm(1, 0, "a", "b")}, NextFileID: 2})
	l.Close()
	// Corrupt the tail with half a JSON object.
	f, _ := fs.Open("MANIFEST")
	size, _ := f.Size()
	buf := make([]byte, size)
	f.ReadAt(buf, 0)
	f.Close()
	w, _ := fs.Create("MANIFEST")
	w.Write(buf)
	w.Write([]byte(`{"added":[{"id":`))
	w.Close()

	_, v, _, err := OpenLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Levels[0]) != 1 {
		t.Fatalf("recovered %d L0 files, want 1", len(v.Levels[0]))
	}
}

// TestL0OrderedBySealSequence: L0 is newest-first by the sequence its
// tables were sealed at, not by file id — a fold allocates its id after a
// flush that installs later with newer data — a flush sealed with no write
// since a fold's newest input is newer than the fold, and tables from
// before MaxSeq existed are the oldest, in id order. CheckInvariants
// notices an L0 out of that order.
func TestL0OrderedBySealSequence(t *testing.T) {
	cl := func(id, maxSeq uint64, kind TableKind) FileMeta {
		f := fm(id, 0, "a", "z")
		f.Kind, f.MaxSeq = kind, maxSeq
		return f
	}
	v, err := NewVersion().Apply(Edit{Added: []FileMeta{
		cl(1, 0, KindCLSST), cl(2, 0, KindCLSST), // written before MaxSeq
		cl(9, 20, KindCLFold), // folded 1, 2 and a flush sealed at 20
		cl(8, 30, KindCLSST),  // allocated its id before the fold did
		cl(7, 20, KindCLSST),  // sealed with no write since the fold's inputs
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, f := range v.Levels[0] {
		got = append(got, f.ID)
	}
	if fmt.Sprint(got) != "[8 7 9 2 1]" {
		t.Fatalf("L0 order %v, want [8 7 9 2 1]", got)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	v.Levels[0][0], v.Levels[0][2] = v.Levels[0][2], v.Levels[0][0]
	if err := v.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted an L0 that is not newest-first")
	}
}

// TestSSTTotals: the byte and entry totals of the classic tables follow
// every add and delete, ignore CL-SSTables, and CheckInvariants notices a
// total that has drifted from its files.
func TestSSTTotals(t *testing.T) {
	sst := func(id uint64, level int, entries uint64) FileMeta {
		f := fm(id, level, fmt.Sprint(id), fmt.Sprint(id))
		f.NumEntries = entries
		return f
	}
	index := fm(4, 0, "a", "z")
	index.Kind, index.LogID, index.NumEntries = KindCLSST, 3, 1000
	v, err := NewVersion().Apply(Edit{Added: []FileMeta{sst(1, 1, 10), sst(2, 2, 20), index}})
	if err != nil {
		t.Fatal(err)
	}
	if b, e := v.SSTTotals(); b != 200 || e != 30 {
		t.Fatalf("totals %d B / %d entries, want 200 / 30", b, e)
	}
	v, err = v.Apply(Edit{Deleted: []uint64{1, 4}, Added: []FileMeta{sst(5, 1, 7)}})
	if err != nil {
		t.Fatal(err)
	}
	if b, e := v.SSTTotals(); b != 200 || e != 27 {
		t.Fatalf("totals after delete %d B / %d entries, want 200 / 27", b, e)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	v.sstEntries++
	if err := v.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted an entry total that differs from the files")
	}
}

// TestJournalRollsAtBound: under churn that keeps the tree small, the
// journal never holds more than rollFactor times its snapshot plus the
// edit that finds it there, and a crash between writing the rolled
// journal and renaming it over the old one recovers the tree journaled so
// far; so does a clean reopen at the end, with the log number only the
// first edits recorded, which every roll since has had to carry.
func TestJournalRollsAtBound(t *testing.T) {
	fs := vfs.NewMemFS()
	var want *Version
	images := 0
	// Image the filesystem before every rename.
	fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind != vfs.OpRename {
			return nil
		}
		images++
		if want == nil {
			return nil // OpenLog's own roll
		}
		l, got, _, err := OpenLog(fs.Clone())
		if err != nil {
			t.Fatalf("image %d: %v", images, err)
		}
		l.Close()
		if fmt.Sprint(levelIDs(got)) != fmt.Sprint(levelIDs(want)) {
			t.Fatalf("image %d recovers %v, journaled %v", images, levelIDs(got), levelIDs(want))
		}
		return nil
	}})
	l, v, _, err := OpenLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	want = v
	rng := rand.New(rand.NewSource(1))
	var live []uint64
	var maxEdit int64
	for id := uint64(1); id <= 400; id++ {
		e := Edit{Added: []FileMeta{fm(id, 0, "a", "z")}, NextFileID: id + 1, LastSeq: id * 10}
		if id <= 10 {
			e.LogNumber = id
		}
		if len(live) > 8 {
			i := rng.Intn(len(live))
			e.Deleted = []uint64{live[i]}
			live = append(live[:i], live[i+1:]...)
		}
		live = append(live, id)
		b, _ := json.Marshal(e)
		maxEdit = max(maxEdit, int64(len(b)+1))
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		if want, err = want.Apply(e); err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Open("MANIFEST")
		size, _ := f.Size()
		f.Close()
		if size != l.size || size > rollFactor*l.snapSize+maxEdit {
			t.Fatalf("edit %d: journal of %d B (%d counted) over %d× its %d B snapshot plus one edit", id, size, l.size, rollFactor, l.snapSize)
		}
	}
	if images < 20 {
		t.Fatalf("%d rolls in 400 edits over a tree of 9 files", images)
	}
	l.Close()
	_, got, state, err := OpenLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(levelIDs(got)) != fmt.Sprint(levelIDs(want)) || state.NextFileID != 401 || state.LastSeq != 4000 || state.LogNumber != 10 {
		t.Fatalf("reopened %v (%+v), journaled %v", levelIDs(got), state, levelIDs(want))
	}
}

// TestLogNumberNeedsNoFlagDay: a journal written before the log number
// existed replays with LogNumber 0 — recovery's old rule, every unpinned
// log replayed — and an edit carrying one decodes without error where the
// field is unknown, as in an older binary.
func TestLogNumberNeedsNoFlagDay(t *testing.T) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("MANIFEST")
	f.Write([]byte(`{"added":[{"id":4,"kind":2,"level":0,"size":10,"entries":1,"smallest":"YQ==","largest":"YQ==","log_id":3}],"next_file_id":6,"last_seq":9}` + "\n"))
	f.Close()
	l, v, state, err := OpenLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(v.Levels[0]) != 1 || state.NextFileID != 6 || state.LastSeq != 9 || state.LogNumber != 0 {
		t.Fatalf("journal without a log number recovered %v, %+v", levelIDs(v), state)
	}
	b, _ := json.Marshal(Edit{NextFileID: 8, LogNumber: 7})
	var older struct {
		NextFileID uint64 `json:"next_file_id"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&older); err != nil || older.NextFileID != 8 || !bytes.Contains(b, []byte(`"log_number":7`)) {
		t.Fatalf("an older decoder read %s as %+v, %v", b, older, err)
	}
}

func levelIDs(v *Version) [][]uint64 {
	out := make([][]uint64, len(v.Levels))
	for l, files := range v.Levels {
		for _, f := range files {
			out[l] = append(out[l], f.ID)
		}
	}
	return out
}

// TestFoldKindRefusedByOlderDecoder: an edit adding a fold table round
// trips, while a decoder that knows the kind only as a number — a binary
// that predates folds — fails on it with a type error, which such a
// binary's replay reports instead of taking it for a torn tail and
// rewriting the journal without the fold's logs. The older kinds are still
// written as numbers.
func TestFoldKindRefusedByOlderDecoder(t *testing.T) {
	fold := fm(9, 0, "a", "z")
	fold.Kind, fold.LogIDs = KindCLFold, []uint64{3, 5}
	b, err := json.Marshal(Edit{Added: []FileMeta{fm(4, 1, "a", "b"), fold}})
	if err != nil {
		t.Fatal(err)
	}
	var e Edit
	if err := json.Unmarshal(b, &e); err != nil || e.Added[0].Kind != KindSST || e.Added[1].Kind != KindCLFold ||
		fmt.Sprint(e.Added[1].LogIDs) != "[3 5]" {
		t.Fatalf("round trip of %s: %+v, %v", b, e, err)
	}
	var older struct {
		Added []struct {
			Kind uint8 `json:"kind"`
		} `json:"added"`
	}
	var typeErr *json.UnmarshalTypeError
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&older); !errors.As(err, &typeErr) {
		t.Fatalf("a numeric kind decodes %s with %v, want a type error", b, err)
	}
	if !bytes.Contains(b, []byte(`"kind":1`)) {
		t.Fatalf("a sorted table's kind is no longer a number: %s", b)
	}
}
