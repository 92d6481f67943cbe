package compaction

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/base"
	"repro/internal/hll"
	"repro/internal/manifest"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// buildTable writes entries (key, value, seq) triples into table id.
func buildTable(t testing.TB, fs vfs.FS, id uint64, entries []base.Entry) {
	t.Helper()
	w, err := sstable.NewWriter(fs, id, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

func openIter(t testing.TB, fs vfs.FS, id uint64) sstable.Iterator {
	t.Helper()
	r, err := sstable.Open(fs, id)
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func e(key string, seq uint64, val string) base.Entry {
	return base.Entry{Key: []byte(key), Value: []byte(val), Seq: seq, Kind: base.KindSet}
}

func del(key string, seq uint64) base.Entry {
	return base.Entry{Key: []byte(key), Seq: seq, Kind: base.KindDelete}
}

func TestMergeIteratorOrder(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, 1, []base.Entry{e("b", 10, "new-b"), e("d", 11, "new-d")})
	buildTable(t, fs, 2, []base.Entry{e("a", 1, "a1"), e("b", 2, "old-b"), e("c", 3, "c1")})
	m := NewMergeIterator([]sstable.Iterator{openIter(t, fs, 1), openIter(t, fs, 2)})
	defer m.Close()
	var got []string
	for m.Next() {
		en := m.Entry()
		got = append(got, fmt.Sprintf("%s/%d", en.Key, en.Seq))
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	want := []string{"a/1", "b/10", "b/2", "c/3", "d/11"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
}

func TestDedupKeepsNewest(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, 1, []base.Entry{e("b", 10, "new-b")})
	buildTable(t, fs, 2, []base.Entry{e("a", 1, "a1"), e("b", 2, "old-b")})
	m := NewMergeIterator([]sstable.Iterator{openIter(t, fs, 1), openIter(t, fs, 2)})
	d := NewDedupIterator(m, false, nil)
	defer d.Close()
	var got []string
	for d.Next() {
		got = append(got, fmt.Sprintf("%s=%s", d.Entry().Key, d.Entry().Value))
	}
	want := "[a=a1 b=new-b]"
	if fmt.Sprint(got) != want {
		t.Fatalf("dedup = %v, want %v", got, want)
	}
}

func TestDedupTombstones(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, 1, []base.Entry{del("a", 10), e("b", 11, "b")})
	buildTable(t, fs, 2, []base.Entry{e("a", 1, "old-a")})
	// Tombstones retained (not bottommost).
	m := NewMergeIterator([]sstable.Iterator{openIter(t, fs, 1), openIter(t, fs, 2)})
	d := NewDedupIterator(m, false, nil)
	var got []string
	for d.Next() {
		got = append(got, fmt.Sprintf("%s/%v", d.Entry().Key, d.Entry().Kind))
	}
	d.Close()
	if fmt.Sprint(got) != "[a/del b/set]" {
		t.Fatalf("kept = %v", got)
	}
	// Tombstones dropped (bottommost).
	m = NewMergeIterator([]sstable.Iterator{openIter(t, fs, 1), openIter(t, fs, 2)})
	d = NewDedupIterator(m, true, nil)
	got = nil
	for d.Next() {
		got = append(got, string(d.Entry().Key))
	}
	d.Close()
	if fmt.Sprint(got) != "[b]" {
		t.Fatalf("dropped = %v", got)
	}
}

func TestDedupSkipHotKeys(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, 1, []base.Entry{e("cold", 1, "c"), e("hot", 2, "h")})
	m := NewMergeIterator([]sstable.Iterator{openIter(t, fs, 1)})
	d := NewDedupIterator(m, false, func(key []byte) bool { return string(key) == "hot" })
	var got []string
	for d.Next() {
		got = append(got, string(d.Entry().Key))
	}
	d.Close()
	if fmt.Sprint(got) != "[cold]" {
		t.Fatalf("skip result = %v", got)
	}
}

// TestDedupCountsDiscarded: everything the merge consumed but did not
// yield is counted — a shadowed version, a skipped hot key, a dropped
// tombstone (and the version it shadowed).
func TestDedupCountsDiscarded(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, 1, []base.Entry{e("a", 10, "new-a"), del("b", 11), e("hot", 12, "h")})
	buildTable(t, fs, 2, []base.Entry{e("a", 1, "old-a"), e("b", 2, "old-b"), e("c", 3, "c")})
	m := NewMergeIterator([]sstable.Iterator{openIter(t, fs, 1), openIter(t, fs, 2)})
	d := NewDedupIterator(m, true, func(key []byte) bool { return string(key) == "hot" })
	defer d.Close()
	var got []string
	for d.Next() {
		got = append(got, string(d.Entry().Key))
	}
	if fmt.Sprint(got) != "[a c]" {
		t.Fatalf("kept = %v", got)
	}
	if d.Discarded() != 4 { // old-a, del b, old-b, hot
		t.Fatalf("Discarded = %d, want 4", d.Discarded())
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	m := NewMergeIterator(nil)
	if m.Next() {
		t.Fatal("empty merge advanced")
	}
	m.Close()
}

// TestQuickMergeEqualsSortedUnion: merging k tables equals the sorted
// newest-wins union of their contents. Tables are built oldest-first
// (ti = 2, 1, 0) with globally increasing sequence numbers, so later
// tables hold the newer version of any shared key.
func TestQuickMergeEqualsSortedUnion(t *testing.T) {
	check := func(tables [3][]uint16) bool {
		fs := vfs.NewMemFS()
		seq := uint64(1)
		want := map[string]string{}
		var ids []uint64 // newest first, for merge rank
		for ti := 2; ti >= 0; ti-- {
			val := fmt.Sprintf("t%d", ti)
			latest := map[string]base.Entry{}
			for _, k := range tables[ti] {
				key := fmt.Sprintf("%04d", k%200)
				latest[key] = base.Entry{Key: []byte(key), Value: []byte(val), Seq: seq, Kind: base.KindSet}
				want[key] = val // later tables overwrite: newest wins
				seq++
			}
			if len(latest) == 0 {
				continue
			}
			sorted := make([]base.Entry, 0, len(latest))
			for _, e := range latest {
				sorted = append(sorted, e)
			}
			sort.Slice(sorted, func(i, j int) bool {
				return string(sorted[i].Key) < string(sorted[j].Key)
			})
			id := uint64(10 + ti)
			buildTable(t, fs, id, sorted)
			ids = append([]uint64{id}, ids...)
		}
		var its []sstable.Iterator
		for _, id := range ids {
			its = append(its, openIter(t, fs, id))
		}
		d := NewDedupIterator(NewMergeIterator(its), false, nil)
		defer d.Close()
		got := map[string]string{}
		var prev string
		for d.Next() {
			k := string(d.Entry().Key)
			if prev != "" && k <= prev {
				return false // order violated
			}
			prev = k
			got[k] = string(d.Entry().Value)
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Picker ---

// fm gives each L0 file the sketch of 1000 keys that no file of another
// id holds (disjointSketch): an L0 of fm files has no key overlap.
func fm(id uint64, level int, lo, hi string, size int64) *manifest.FileMeta {
	f := &manifest.FileMeta{ID: id, Kind: manifest.KindSST, Level: level, Size: size, Smallest: []byte(lo), Largest: []byte(hi)}
	if level == 0 {
		f.Sketch = disjointSketch(id)
	}
	return f
}

func version(files ...*manifest.FileMeta) *manifest.Version {
	v := manifest.NewVersion()
	var edit manifest.Edit
	for _, f := range files {
		edit.Added = append(edit.Added, *f)
	}
	nv, err := v.Apply(edit)
	if err != nil {
		panic(err)
	}
	return nv
}

func sketchWith(n, salt int) *hll.Sketch {
	s := hll.MustNew(12)
	for i := 0; i < n; i++ {
		s.Add([]byte(fmt.Sprintf("%d-%d", salt, i)))
	}
	return s
}

// disjointSketches memoizes disjointSketch: the picker never writes a
// sketch, so files of one id can share theirs.
var disjointSketches = map[uint64]*hll.Sketch{}

// disjointSketch is sketchWith(1000, id).
func disjointSketch(id uint64) *hll.Sketch {
	if disjointSketches[id] == nil {
		disjointSketches[id] = sketchWith(1000, int(id))
	}
	return disjointSketches[id]
}

func TestPickerBaselineOneL0FileAtATime(t *testing.T) {
	p := NewPicker(PickerOptions{BaseLevelBytes: 8 << 20})
	v := version(
		fm(4, 0, "a", "z", 100), fm(3, 0, "a", "z", 100),
		fm(2, 0, "a", "z", 100), fm(1, 0, "a", "z", 100),
		fm(10, 1, "a", "m", 100), fm(11, 1, "n", "z", 100),
	)
	job := p.Pick(v, false)
	if job == nil || job.Deferred {
		t.Fatalf("job = %+v", job)
	}
	if len(job.Inputs) != 1 || job.Inputs[0].ID != 1 {
		t.Fatalf("baseline picked %d L0 inputs (first %d), want oldest single file",
			len(job.Inputs), job.Inputs[0].ID)
	}
	if len(job.Overlaps) != 2 {
		t.Fatalf("overlaps = %d, want 2", len(job.Overlaps))
	}
}

func TestPickerTriadCompactsAllL0Together(t *testing.T) {
	p := NewPicker(PickerOptions{BaseLevelBytes: 8 << 20, TriadDisk: true})
	// Four L0 files over the same keys: overlap ratio ≈ 0.75 ≥ 0.4.
	shared := sketchWith(1000, 0)
	var l0 []*manifest.FileMeta
	for id := uint64(4); id >= 1; id-- {
		f := fm(id, 0, "a", "z", 100)
		f.Sketch = shared
		l0 = append(l0, f)
	}
	job := p.Pick(version(l0...), false)
	if job == nil || job.Deferred {
		t.Fatalf("job = %+v, want a real job", job)
	}
	if len(job.Inputs) != 4 {
		t.Fatalf("TRIAD picked %d L0 inputs, want all 4", len(job.Inputs))
	}
}

func TestPickerTriadDefersLowOverlap(t *testing.T) {
	p := NewPicker(PickerOptions{BaseLevelBytes: 8 << 20, TriadDisk: true})
	v := version(
		fm(4, 0, "a", "z", 100), fm(3, 0, "a", "z", 100),
		fm(2, 0, "a", "z", 100), fm(1, 0, "a", "z", 100),
	)
	// Disjoint sketches: overlap ≈ 0 < 0.4 → defer.
	job := p.Pick(v, false)
	if job == nil || !job.Deferred || len(job.Inputs) != 0 {
		t.Fatalf("job = %+v, want deferred", job)
	}
	// Forced, the deferred merge itself: every L0 file, still marked.
	job = p.Pick(v, true)
	if job == nil || !job.Deferred || len(job.Inputs) != 4 || job.OutputLevel != 1 {
		t.Fatalf("forced job = %+v, want the deferred merge of all 4 L0 files", job)
	}
}

func TestPickerTriadForcesAtMaxFiles(t *testing.T) {
	p := NewPicker(PickerOptions{BaseLevelBytes: 8 << 20, TriadDisk: true})
	var files []*manifest.FileMeta
	for id := uint64(1); id <= 6; id++ {
		files = append(files, fm(id, 0, "a", "z", 100))
	}
	v := version(files...)
	// Still disjoint, but MAX_FILES_L0 reached → compact anyway.
	job := p.Pick(v, false)
	if job == nil || job.Deferred {
		t.Fatalf("job = %+v, want forced compaction", job)
	}
	if len(job.Inputs) != 6 {
		t.Fatalf("forced compaction picked %d inputs, want 6", len(job.Inputs))
	}
}

// TestPickerFoldOrMerge: where L0 can fold (L0LogBytes set, every L0 file
// a CL-SSTable), TRIAD-DISK's act on L0 folds its newest run until the
// folds' rent reaches the merge's price — the L1 bytes it rewrites and the
// L2 bytes under its spill — or one more full log could take L0 past its
// log ceiling — which also acts below the file trigger — and a drain
// always merges. The run leaves L0 under its trigger and takes each next
// older table whose index is no larger than the run's. The ceiling is
// L0LogBytes, or L0LogPerPriceByte times the price if more. Anywhere else
// L0 merges as it always has.
func TestPickerFoldOrMerge(t *testing.T) {
	const logBytes = 1000 // CommitLogBytes
	const ceiling = MaxFilesL0 * logBytes
	cl := func(id uint64, kind manifest.TableKind, logs, rent int64) *manifest.FileMeta {
		f := fm(id, 0, "a", "z", 100)
		f.Kind, f.LogBytes, f.FoldBytes, f.MaxSeq = kind, logs, rent, id
		if kind == manifest.KindCLSST {
			f.LogID = 100 + id
		} else if kind == manifest.KindCLFold {
			f.LogIDs = []uint64{100 + id, 200 + id}
		}
		return f
	}
	// Flushes are newer than the folds below: their ids are 11 and up.
	flushes := func(n int) []*manifest.FileMeta {
		var files []*manifest.FileMeta
		for id := 1; id <= n; id++ {
			files = append(files, cl(uint64(10+id), manifest.KindCLSST, 300, 0))
		}
		return files
	}
	// A fold of earlier flushes whose index is size bytes.
	folded := func(id uint64, size, rent int64) *manifest.FileMeta {
		f := cl(id, manifest.KindCLFold, 1500, rent)
		f.Size = size
		return f
	}
	l1 := []*manifest.FileMeta{fm(20, 1, "a", "m", 400), fm(21, 1, "n", "z", 500)} // price 900
	// L1 over its 1 MiB target, so a merge spills the a–m range (the file
	// with the fewer L2 bytes per byte) into L2, which is not the bottom
	// level: price 1.2 MB of L1 and 0.6 MB of L2.
	spilling := []*manifest.FileMeta{
		fm(20, 1, "a", "m", 600_000), fm(21, 1, "n", "z", 600_000),
		fm(30, 2, "a", "f", 300_000), fm(31, 2, "g", "m", 300_000), fm(32, 2, "n", "z", 900_000),
		fm(40, 3, "a", "z", 100<<20),
	}
	// L1 bytes worth three full logs: price 3000, so the ceiling is
	// L0LogPerPriceByte times that. A fold that pins pricedLog beside a
	// flush's 300 B leaves L0 one full log under it, past the floor's reach;
	// 100 B more and one more log could take L0 past it.
	priced := []*manifest.FileMeta{fm(20, 1, "a", "m", 2000), fm(21, 1, "n", "z", 1000)}
	const pricedCeiling = L0LogPerPriceByte * 3000
	const pricedLog = pricedCeiling - logBytes - 300
	if pricedLog+300+logBytes <= ceiling {
		t.Fatalf("L0LogPerPriceByte %d puts the priced ceiling %d B within the %d B floor", L0LogPerPriceByte, pricedCeiling, ceiling)
	}
	// Two key-disjoint tables below every L1 key: price 0.
	outside := []*manifest.FileMeta{cl(8, manifest.KindCLSST, 300, 0), cl(9, manifest.KindCLFold, 4800, 10)}
	outside[0].Smallest, outside[0].Largest = []byte("0"), []byte("5")
	outside[1].Smallest, outside[1].Largest = []byte("6"), []byte("9")
	cases := []struct {
		name      string
		l0        []*manifest.FileMeta
		below     []*manifest.FileMeta
		ceiling   int64
		force     bool
		want      string // "" no job, "deferred", or the job's rule ("merge" if none)
		wantInput int
		wantSpill int // L2 files the merge consumes
	}{
		{"four flushes below MaxFilesL0 defer", flushes(4), l1, ceiling, false, "deferred", 0, 0},
		{"MaxFilesL0 flushes fold", flushes(6), l1, ceiling, false, RuleFold, 6, 0},
		{"a fold and five flushes fold again", append(flushes(5), folded(9, 1000, 899)), l1, ceiling, false, RuleFold, 5, 0},
		{"a run of four flushes leaves two larger folds", append(flushes(4), folded(9, 1000, 10), folded(8, 2000, 20)), l1, ceiling, false, RuleFold, 4, 0},
		{"a run takes an older fold no larger than itself", append(flushes(4), folded(9, 400, 10), folded(8, 2000, 20)), l1, ceiling, false, RuleFold, 5, 0},
		{"rent paid merges", append(flushes(5), cl(9, manifest.KindCLFold, 1500, 900)), l1, ceiling, false, RuleRentPaid, 6, 0},
		{"nothing below to rewrite merges", flushes(6), nil, ceiling, false, RuleRentPaid, 6, 0},
		{"log ceiling merges below the trigger", []*manifest.FileMeta{cl(8, manifest.KindCLSST, 300, 0), cl(9, manifest.KindCLFold, 4800, 10)}, l1, ceiling, false, RuleLogCeiling, 2, 0},
		{"just under the ceiling waits", []*manifest.FileMeta{cl(8, manifest.KindCLSST, 300, 0), cl(9, manifest.KindCLFold, 4700, 10)}, l1, ceiling, false, "", 0, 0},
		{"a drain merges one file", flushes(1), l1, ceiling, true, RuleDrain, 1, 0},
		{"a drain merges a deferred L0", flushes(4), l1, ceiling, true, RuleDrain, 4, 0},
		{"a sorted table in L0 merges", append(flushes(5), fm(9, 0, "a", "z", 100)), l1, ceiling, false, "merge", 6, 0},
		{"no folds without a ceiling", flushes(6), l1, 0, false, "merge", 6, 0},
		{"the spill's L2 bytes count in the price", append(flushes(5), cl(9, manifest.KindCLFold, 1500, 1_500_000)), spilling, ceiling, false, RuleFold, 6, 0},
		{"rent paid for L1 and the spill merges", append(flushes(5), cl(9, manifest.KindCLFold, 1500, 1_800_000)), spilling, ceiling, false, RuleRentPaid, 6, 2},
		{"a priced L0 waits past the floor", []*manifest.FileMeta{cl(8, manifest.KindCLSST, 300, 0), cl(9, manifest.KindCLFold, pricedLog, 10)}, priced, ceiling, false, "", 0, 0},
		{"a priced L0 merges at its ceiling", []*manifest.FileMeta{cl(8, manifest.KindCLSST, 300, 0), cl(9, manifest.KindCLFold, pricedLog+100, 10)}, priced, ceiling, false, RuleLogCeiling, 2, 0},
		{"a key-disjoint L0 merges at the floor", outside, priced, ceiling, false, RuleLogCeiling, 2, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewPicker(PickerOptions{
				BaseLevelBytes: 1 << 20, TriadDisk: true, L0LogBytes: c.ceiling,
			})
			v := version(append(append([]*manifest.FileMeta(nil), c.l0...), c.below...)...)
			job := p.Pick(v, c.force)
			switch {
			case c.want == "":
				if job != nil {
					t.Fatalf("job %+v, want none", job)
				}
				return
			case job == nil:
				t.Fatalf("no job, want %s", c.want)
			case c.want == "deferred":
				if !job.Deferred || len(job.Inputs) != 0 {
					t.Fatalf("job %+v, want a deferral", job)
				}
				return
			}
			rule := job.Rule
			if rule == "" {
				rule = "merge"
			}
			if rule != c.want || len(job.Inputs) != c.wantInput || job.Level != 0 {
				t.Fatalf("job %s on %d inputs (%s), want %s on %d", rule, len(job.Inputs), job.Why(), c.want, c.wantInput)
			}
			lo, hi := KeyRangeOf(c.l0)
			overlaps := len(v.Overlap(1, lo, hi))
			if job.Fold != (rule == RuleFold) || job.Fold && (job.OutputLevel != 0 || len(job.Overlaps)+len(job.Spill)+len(job.SpillOverlaps) != 0) ||
				!job.Fold && (job.OutputLevel != 1 || len(job.Overlaps) != overlaps || len(job.SpillOverlaps) != c.wantSpill) {
				t.Fatalf("%s job: fold %v, output L%d, %d overlaps, %d spilled over", rule, job.Fold, job.OutputLevel, len(job.Overlaps), len(job.SpillOverlaps))
			}
			if c.ceiling == 0 || rule == "merge" {
				return
			}
			if !strings.Contains(job.Why(), "rent ") {
				t.Fatalf("Why %q does not explain the %s", job.Why(), rule)
			}
			if job.Fold {
				// The run is the newest tables of L0, newest first.
				l0 := v.Levels[0]
				for i, f := range job.Inputs {
					if f.ID != l0[i].ID {
						t.Fatalf("fold input %d is table %d, want L0's %dth newest, table %d", i, f.ID, i+1, l0[i].ID)
					}
				}
				if why := fmt.Sprintf("fold %d->1 of %d, left %d", c.wantInput, len(l0), len(l0)-c.wantInput); !strings.HasPrefix(job.Why(), why) {
					t.Fatalf("Why %q, want it to start %q", job.Why(), why)
				}
				return
			}
			// The merge is the one that was priced: its note's price is the
			// bytes of its own overlaps and spill.
			var price int64
			for _, f := range append(append([]*manifest.FileMeta(nil), job.Overlaps...), job.SpillOverlaps...) {
				price += f.Size
			}
			ceiling := max(c.ceiling, L0LogPerPriceByte*price)
			if note := fmt.Sprintf("/%.2f MB, logs ", float64(price)/1e6); !strings.Contains(job.Note, note) {
				t.Fatalf("note %q does not price the merge's %d B of overlaps and spill", job.Note, price)
			}
			if note := fmt.Sprintf("/%.2f MiB", float64(ceiling)/(1<<20)); !strings.Contains(job.Note, note) {
				t.Fatalf("note %q does not show the ceiling %d B", job.Note, ceiling)
			}
			if got := p.L0LogCeiling(v); got != ceiling {
				t.Fatalf("L0LogCeiling = %d, the merge was priced at ceiling %d", got, ceiling)
			}
		})
	}
}

// TestL0LogPerPriceByte models cycles of the L0 of an ingest_uniform
// shard, from an empty L0 to its merge, as measured: 1 MiB commit logs (a
// 6 MiB floor), flushes that each pin 0.23 MiB of log and index 0.06 B of
// it per byte, folds forced at MaxFilesL0 because a flush's keys barely
// overlap the next one's, and a merge priced as measured: a merge into L1
// would rewrite 1.4 MB of L1 (what a round's first merge leaves there,
// once the drain before it has taken L0 deep and emptied L1) and 8.2 MB of
// L2 under its spill. Each fold takes the picker's run, and its folds
// write at most half the index bytes that folds of all of L0 would write
// at the same points. The log ceiling is L0LogPerPriceByte times the
// price, and the multiple leaves the rent room (see the constant): while
// the folds keep pace they pay the price, and the rent ends the cycle
// more than one log under the ceiling. While they are withheld, as a pool
// that lags behind the writers withholds them, the ceiling ends the cycle
// within one log of it. The rent rule also holds under the floor: a merge
// priced below what the folds write there is merged by its rent.
func TestL0LogPerPriceByte(t *testing.T) {
	const (
		logBytes   = 1 << 20
		floor      = MaxFilesL0 * logBytes
		flushLog   = 230 << 10
		flushIndex = flushLog * 6 / 100
	)
	// cycle runs the model at a merge price, with the folds the picker
	// asks for run or withheld, and returns the merge, the index bytes its
	// folds wrote, those folds of all of L0 would have written, the most
	// rent an act on L0 found while one more log could not take L0 past
	// the floor, and the log L0 pinned at the merge.
	cycle := func(price int64, runFolds bool) (job *Job, folded, allFolded, underFloor, logs int64) {
		p := NewPicker(PickerOptions{BaseLevelBytes: 64 << 20, TriadDisk: true, L0LogBytes: floor})
		below := []*manifest.FileMeta{fm(1000, 1, "a", "m", price/2), fm(1001, 1, "n", "z", price-price/2)}
		var l0 []*manifest.FileMeta // newest first
		for id := uint64(1); id < 1000; id++ {
			f := fm(id, 0, "a", "z", flushIndex)
			f.Kind, f.LogID, f.LogBytes, f.MaxSeq = manifest.KindCLSST, id, flushLog, id
			l0 = append([]*manifest.FileMeta{f}, l0...)
			logs += flushLog
			job := p.Pick(version(append(append([]*manifest.FileMeta(nil), l0...), below...)...), false)
			switch {
			case job == nil || job.Deferred:
				continue
			case job.Fold && !runFolds:
				continue
			case job.Fold:
				n := len(job.Inputs)
				fold := fm(id, 0, "a", "z", 0)
				fold.Kind, fold.MaxSeq = manifest.KindCLFold, id
				for _, in := range l0[:n] {
					fold.Size += in.Size
					fold.FoldBytes += in.FoldBytes
					fold.LogBytes += in.LogBytes
					fold.LogIDs = append(fold.LogIDs, in.Logs()...)
				}
				fold.FoldBytes += fold.Size
				l0 = append([]*manifest.FileMeta{fold}, l0[n:]...)
				if logs+logBytes <= floor {
					underFloor = folded // the rent this act found, below the floor's ceiling
				}
				folded += fold.Size
				allFolded += int64(id) * flushIndex // every flush's index so far
				continue
			}
			return job, folded, allFolded, underFloor, logs
		}
		t.Fatal("L0 never merged")
		return
	}

	const price = 9_600_000
	const ceiling = L0LogPerPriceByte * price
	job, folded, allFolded, underFloor, logs := cycle(price, true)
	t.Logf("%s: folds wrote %.2f MB, folds of all of L0 %.2f MB, %.2f MB under the floor", job.Why(), float64(folded)/1e6, float64(allFolded)/1e6, float64(underFloor)/1e6)
	if 2*folded > allFolded {
		t.Fatalf("the run folds wrote %d B, more than half of the %d B folds of all of L0 would", folded, allFolded)
	}
	if job.Rule != RuleRentPaid || job.rewrites() != price || folded < price {
		t.Fatalf("%s merge (%s) with %d B of rent, want the %d B price paid", job.Rule, job.Why(), folded, price)
	}
	if logs+logBytes > ceiling {
		t.Fatalf("the rent was paid at %d B of log, want more than a log under the %d B ceiling", logs, ceiling)
	}

	job, folded, _, _, logs = cycle(price, false)
	t.Logf("folds withheld: %s", job.Why())
	if job.Rule != RuleLogCeiling || job.rewrites() != price || folded != 0 {
		t.Fatalf("%s merge (%s) with %d B of rent, want the ceiling to end a cycle whose folds are withheld", job.Rule, job.Why(), folded)
	}
	if logs > ceiling || logs+logBytes <= ceiling {
		t.Fatalf("merged at %d B of log, want within a log of the %d B ceiling", logs, ceiling)
	}

	cheap := underFloor / 2
	job, _, _, _, logs = cycle(cheap, true)
	if cheap == 0 || job.Rule != RuleRentPaid || logs > floor {
		t.Fatalf("%s merge (%s) at %d B of log, want a %d B price paid under the floor", job.Rule, job.Why(), logs, cheap)
	}
	t.Logf("a %.2f MB price: %s", float64(cheap)/1e6, job.Why())
}

// TestPickerL0Depth: where L0 can fold, L0 is counted by read depth, not
// files. Eight key-disjoint CL-SSTables, a sequential load's L0, have
// depth 1: below the log ceiling they owe nothing, and at it they merge
// (the ceiling is what bounds them). The same eight over overlapping
// ranges have depth 8 and fold, as a file count would have it. Without a
// ceiling to bound it, L0 stays counted by files.
func TestPickerL0Depth(t *testing.T) {
	const logBytes = 1000
	const ceiling = MaxFilesL0 * logBytes
	eight := func(disjoint bool, logs int64) []*manifest.FileMeta {
		var files []*manifest.FileMeta
		for i := 0; i < 8; i++ {
			lo, hi := "a", "z"
			if disjoint {
				lo, hi = fmt.Sprintf("k%d0", 7-i), fmt.Sprintf("k%d9", 7-i) // newest first, like L0
			}
			f := fm(uint64(8-i), 0, lo, hi, 100)
			f.Kind, f.LogID, f.LogBytes, f.MaxSeq = manifest.KindCLSST, uint64(108-i), logs, uint64(8-i)
			files = append(files, f)
		}
		return files
	}
	l1 := []*manifest.FileMeta{fm(20, 1, "a", "m", 400), fm(21, 1, "n", "z", 500)}
	cases := []struct {
		name      string
		l0        []*manifest.FileMeta
		ceiling   int64
		wantDepth int
		want      string // "" no job, else the job's rule ("merge" if none)
	}{
		{"disjoint below the ceiling owes nothing", eight(true, 300), ceiling, 1, ""},
		{"overlapping folds", eight(false, 300), ceiling, 8, RuleFold},
		{"disjoint at the ceiling merges", eight(true, 700), ceiling, 1, RuleLogCeiling},
		{"disjoint without folds counts files", eight(true, 300), 0, 1, "merge"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewPicker(PickerOptions{BaseLevelBytes: 1 << 20, TriadDisk: true, L0LogBytes: c.ceiling})
			v := version(append(append([]*manifest.FileMeta(nil), c.l0...), l1...)...)
			if got := L0Depth(v.Levels[0]); got != c.wantDepth {
				t.Fatalf("L0Depth = %d, want %d", got, c.wantDepth)
			}
			pressure := c.wantDepth
			if c.ceiling == 0 {
				pressure = len(c.l0)
			}
			if got := p.L0Pressure(v.Levels[0]); got != pressure {
				t.Fatalf("L0Pressure = %d, want %d", got, pressure)
			}
			job := p.Pick(v, false)
			if c.want == "" {
				if job != nil {
					t.Fatalf("job %+v (%s), want none", job, job.Why())
				}
				if debt := p.Debt(v); debt != 0 {
					t.Fatalf("debt %d, want none", debt)
				}
				return
			}
			if job == nil || job.Deferred {
				t.Fatalf("job %+v, want %s", job, c.want)
			}
			rule := job.Rule
			if rule == "" {
				rule = "merge"
			}
			if rule != c.want || len(job.Inputs) != len(c.l0) {
				t.Fatalf("job %s on %d inputs (%s), want %s on all %d", rule, len(job.Inputs), job.Why(), c.want, len(c.l0))
			}
			if note := fmt.Sprintf("depth %d of %d files", c.wantDepth, len(c.l0)); !strings.Contains(job.Why(), note) {
				t.Fatalf("Why %q does not say %q", job.Why(), note)
			}
		})
	}
}

func TestPickerSizeTriggeredDeeperLevels(t *testing.T) {
	p := NewPicker(PickerOptions{BaseLevelBytes: 1000})
	v := version(
		fm(1, 1, "a", "m", 800), fm(2, 1, "n", "z", 900), // L1 = 1700 > 1000
		fm(3, 2, "a", "z", 500),
	)
	job := p.Pick(v, false)
	if job == nil || job.Level != 1 || len(job.Inputs) != 1 {
		t.Fatalf("job = %+v", job)
	}
	if len(job.Overlaps) != 1 || job.Overlaps[0].ID != 3 {
		t.Fatalf("overlaps = %v", job.Overlaps)
	}
}

func TestPickerNothingToDo(t *testing.T) {
	p := NewPicker(PickerOptions{BaseLevelBytes: 8 << 20, TriadDisk: true})
	v := version(fm(1, 1, "a", "m", 100))
	if job := p.Pick(v, false); job != nil {
		t.Fatalf("job = %+v, want nil", job)
	}
}

// deepPicker has L1 over its 100-byte target, so Pick always pushes an
// L1 file into L2.
func deepPicker() *Picker {
	return NewPicker(PickerOptions{BaseLevelBytes: 100})
}

// TestPickerMinOverlap: a push takes the file with the smallest
// overlapped-bytes / own-bytes ratio, first such file on ties, whether the
// output level is an intermediate one or the bottom level, and a file with
// nothing under it becomes a move.
func TestPickerMinOverlap(t *testing.T) {
	bottom := fm(90, 3, "a", "z", 5000) // makes L2 intermediate
	cases := []struct {
		name     string
		files    []*manifest.FileMeta
		wantID   uint64
		overlaps []uint64
		move     bool
	}{
		{
			name: "fewest overlapped bytes per own byte",
			files: []*manifest.FileMeta{
				fm(1, 1, "a", "f", 100), fm(2, 1, "g", "m", 100), fm(3, 1, "n", "z", 100),
				fm(10, 2, "a", "c", 300), fm(11, 2, "d", "h", 300), // file 1: 600, file 2: 300+50
				fm(12, 2, "i", "k", 50), fm(13, 2, "n", "z", 400), // file 3: 400
			},
			wantID: 2, overlaps: []uint64{11, 12},
		},
		{
			name: "ratio, not absolute bytes",
			files: []*manifest.FileMeta{
				fm(1, 1, "a", "f", 100), fm(2, 1, "g", "m", 400),
				fm(10, 2, "a", "f", 200), fm(11, 2, "g", "m", 400), // 2.0 vs 1.0
			},
			wantID: 2, overlaps: []uint64{11},
		},
		{
			name: "ties go to the smallest key",
			files: []*manifest.FileMeta{
				fm(1, 1, "a", "f", 100), fm(2, 1, "g", "m", 100), fm(3, 1, "n", "z", 100),
				fm(10, 2, "a", "f", 200), fm(11, 2, "g", "m", 200), fm(12, 2, "n", "z", 200),
			},
			wantID: 1, overlaps: []uint64{10},
		},
		{
			name: "a file spanning a gap is charged to both neighbours",
			files: []*manifest.FileMeta{
				fm(1, 1, "a", "f", 100), fm(2, 1, "h", "m", 100), fm(3, 1, "n", "q", 100),
				fm(10, 2, "e", "i", 300), fm(11, 2, "o", "p", 350),
			},
			wantID: 1, overlaps: []uint64{10},
		},
		{
			name: "zero overlap yields a move",
			files: []*manifest.FileMeta{
				fm(1, 1, "a", "f", 100), fm(2, 1, "g", "m", 100), fm(3, 1, "n", "z", 100),
				fm(10, 2, "a", "e", 10), fm(11, 2, "p", "q", 10),
			},
			wantID: 2, move: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, intermediate := range []bool{true, false} {
				files := tc.files
				if intermediate {
					files = append(files[:len(files):len(files)], bottom)
				}
				v := version(files...)
				p := deepPicker()
				for lap := 0; lap < 2; lap++ { // the choice carries no state
					job := p.Pick(v, false)
					if job == nil || job.Level != 1 || job.OutputLevel != 2 || len(job.Inputs) != 1 || job.Rule != RuleMinOverlap {
						t.Fatalf("intermediate=%v: job = %+v", intermediate, job)
					}
					if job.Inputs[0].ID != tc.wantID {
						t.Fatalf("intermediate=%v: picked file %d, want %d", intermediate, job.Inputs[0].ID, tc.wantID)
					}
					var got []uint64
					for _, f := range job.Overlaps {
						got = append(got, f.ID)
					}
					if fmt.Sprint(got) != fmt.Sprint(tc.overlaps) {
						t.Fatalf("intermediate=%v: overlaps = %v, want %v", intermediate, got, tc.overlaps)
					}
					if job.Move != tc.move {
						t.Fatalf("intermediate=%v: Move = %v, want %v", intermediate, job.Move, tc.move)
					}
				}
			}
		})
	}
}

// TestPickerSpill: a baseline L0 merge (the oldest L0 file, the batch)
// into an L1 it would leave over its 1000-byte target spills the consumed
// L1 files that cost the fewest L2 bytes per own byte, until their bytes
// plus the batch's share of them cover the overflow, together with exactly
// the L2 files under them, whether or not L2 is the bottom level.
func TestPickerSpill(t *testing.T) {
	p := NewPicker(PickerOptions{BaseLevelBytes: 1000})
	// batch returns the four L0 files; the oldest, id 1, spans [lo, hi].
	batch := func(lo, hi string, size int64) []*manifest.FileMeta {
		return []*manifest.FileMeta{fm(1, 0, lo, hi, size), fm(2, 0, "a", "z", 1), fm(3, 0, "a", "z", 1), fm(4, 0, "a", "z", 1)}
	}
	bottom := fm(90, 3, "a", "z", 50_000) // makes L2 intermediate
	cases := []struct {
		name                    string
		files                   []*manifest.FileMeta
		spill, spillUnder, kept []uint64
	}{
		{
			name: "L1 stays within its target: no spill",
			files: append(batch("a", "z", 300),
				fm(10, 1, "a", "f", 200), fm(11, 1, "g", "m", 200), fm(12, 1, "n", "z", 200),
				fm(20, 2, "a", "z", 900), bottom),
		},
		{
			// L2 is the bottom level: 10 and 12 (nothing under them) cover
			// the overflow of 800 and go to it; the L2 file under 11 stays.
			name: "a spill into the bottom level",
			files: append(batch("a", "z", 300),
				fm(10, 1, "a", "f", 500), fm(11, 1, "g", "m", 500), fm(12, 1, "n", "z", 500),
				fm(20, 2, "h", "i", 10)),
			spill: []uint64{10, 12}, kept: []uint64{20},
		},
		{
			// Overflow 500+500+500+300-1000 = 800; each file covers 500 x
			// (1 + 300/1500) = 600, so the two cheapest go: 11 (0.2), 12 (0.8).
			name: "min-overlap order until the overflow is covered",
			files: append(batch("a", "z", 300),
				fm(10, 1, "a", "f", 500), fm(11, 1, "g", "m", 500), fm(12, 1, "n", "z", 500),
				fm(20, 2, "a", "c", 800), fm(21, 2, "h", "i", 100), fm(22, 2, "o", "z", 400), bottom),
			spill: []uint64{11, 12}, spillUnder: []uint64{21, 22},
		},
		{
			// Overflow 600+600+600+100-1000 = 900; one file covers 633.
			name: "ties go to the smallest key",
			files: append(batch("a", "z", 100),
				fm(10, 1, "a", "f", 600), fm(11, 1, "g", "m", 600), fm(12, 1, "n", "z", 600),
				fm(20, 2, "a", "f", 600), fm(21, 2, "g", "m", 600), fm(22, 2, "n", "z", 600), bottom),
			spill: []uint64{10, 11}, spillUnder: []uint64{20, 21},
		},
		{
			name: "an L2 file under two spilled ranges is taken once",
			files: append(batch("a", "z", 300),
				fm(10, 1, "a", "f", 500), fm(11, 1, "g", "m", 500), fm(12, 1, "n", "z", 500),
				fm(20, 2, "e", "h", 100), fm(21, 2, "p", "q", 2000), bottom),
			spill: []uint64{10, 11}, spillUnder: []uint64{20},
		},
		{
			// 10 and 12 (0.2 each) cover the overflow of 800; 11 (4.0)
			// stays in L1, and so does the L2 file under it alone.
			name: "an L2 file between two spilled ranges is kept",
			files: append(batch("a", "z", 300),
				fm(10, 1, "a", "f", 500), fm(11, 1, "g", "m", 500), fm(12, 1, "n", "z", 500),
				fm(20, 2, "a", "c", 100), fm(21, 2, "h", "i", 2000), fm(22, 2, "o", "z", 100), bottom),
			spill: []uint64{10, 12}, spillUnder: []uint64{20, 22}, kept: []uint64{21},
		},
		{
			// Only 10 is consumed; 11 and 12 would be cheaper but are not
			// the merge's. 10 covers 500 x (1 + 300/500) = 800, the overflow.
			name: "only what the merge consumes",
			files: append(batch("a", "e", 300),
				fm(10, 1, "a", "f", 500), fm(11, 1, "g", "m", 500), fm(12, 1, "n", "z", 500),
				fm(20, 2, "a", "c", 400), fm(21, 2, "d", "f", 400), bottom),
			spill: []uint64{10}, spillUnder: []uint64{20, 21},
		},
	}
	ids := func(files []*manifest.FileMeta) []uint64 {
		var out []uint64
		for _, f := range files {
			out = append(out, f.ID)
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := version(tc.files...)
			job := p.Pick(v, false)
			if job == nil || job.Level != 0 || job.OutputLevel != 1 || len(job.Inputs) != 1 || job.Inputs[0].ID != 1 {
				t.Fatalf("job = %+v, want the oldest L0 file into L1", job)
			}
			if got := ids(job.Spill); fmt.Sprint(got) != fmt.Sprint(tc.spill) {
				t.Fatalf("spilled %v, want %v", got, tc.spill)
			}
			if got := ids(job.SpillOverlaps); fmt.Sprint(got) != fmt.Sprint(tc.spillUnder) {
				t.Fatalf("spilled over %v, want %v", got, tc.spillUnder)
			}
			// Spill ⊆ Overlaps, and the L2 files are exactly those under
			// the spilled ranges.
			consumed := map[uint64]bool{}
			for _, f := range job.Overlaps {
				consumed[f.ID] = true
			}
			under := map[uint64]bool{}
			for _, s := range job.Spill {
				if !consumed[s.ID] {
					t.Fatalf("spilled file %d is not among the merge's L1 files %v", s.ID, ids(job.Overlaps))
				}
				for _, f := range v.Overlap(2, s.Smallest, s.Largest) {
					under[f.ID] = true
				}
			}
			if len(under) != len(job.SpillOverlaps) {
				t.Fatalf("spilled over %v, but the spilled ranges overlap %v", ids(job.SpillOverlaps), under)
			}
			for _, f := range job.SpillOverlaps {
				if !under[f.ID] {
					t.Fatalf("L2 file %d is under no spilled range", f.ID)
				}
			}
			// The kept files are the rest of L2 between the spilled ranges.
			if got := ids(job.SpillKept); fmt.Sprint(got) != fmt.Sprint(tc.kept) {
				t.Fatalf("kept %v, want %v", got, tc.kept)
			}
			if len(job.Spill) > 0 {
				between := v.Overlap(2, job.Spill[0].Smallest, job.Spill[len(job.Spill)-1].Largest)
				if len(between) != len(job.SpillOverlaps)+len(job.SpillKept) {
					t.Fatalf("L2 between the spilled ranges is %v, but the job takes %v and keeps %v",
						ids(between), ids(job.SpillOverlaps), ids(job.SpillKept))
				}
			}
		})
	}
}

// TestPickerDeepMerge: a baseline L0 merge (the oldest L0 file, the batch)
// writes the deepest level above the bottom whose bytes under the merge's
// key range, with those of every level above it, the batch at least
// matches, and consumes them all: the L1 files under the batch, then the
// L2 files under the union of their ranges. It spills that level's
// overflow into the next, the bottom one too, in min-overlap order.
func TestPickerDeepMerge(t *testing.T) {
	p := NewPicker(PickerOptions{BaseLevelBytes: 1000})
	batch := func(lo, hi string, size int64) []*manifest.FileMeta {
		return []*manifest.FileMeta{fm(1, 0, lo, hi, size), fm(2, 0, "a", "z", 1), fm(3, 0, "a", "z", 1), fm(4, 0, "a", "z", 1)}
	}
	// L1 and L2 under a-m: 10 and 11 (11 reaches p), then 20-22 under a-p,
	// 1100 bytes in all. L3, the bottom at 800 bytes, sizes L2 at 1250
	// (the least fan-out): a merge bringing 1700 bytes into L2's 800 spills
	// 1250, and each consumed L2 file covers 4.4 times its size.
	tree := []*manifest.FileMeta{
		fm(10, 1, "a", "f", 300), fm(11, 1, "g", "p", 300), fm(12, 1, "q", "z", 300),
		fm(20, 2, "a", "c", 200), fm(21, 2, "d", "o", 200), fm(22, 2, "p", "r", 100), fm(23, 2, "s", "z", 300),
		fm(30, 3, "a", "b", 400), fm(31, 3, "f", "g", 100), fm(33, 3, "x", "y", 300),
	}
	cases := []struct {
		name                    string
		files                   []*manifest.FileMeta
		out                     int
		overlaps                []uint64
		spill, spillUnder, kept []uint64
	}{
		{
			// Today's merge: into L1, which it overfills, so it spills
			// both L1 files, 11 (ratio 1.0) first, into L2.
			name:  "a batch below L1+L2 under its range goes to L1",
			files: append(batch("a", "m", 1099), tree...),
			out:   1, overlaps: []uint64{10, 11},
			spill: []uint64{10, 11}, spillUnder: []uint64{20, 21, 22},
		},
		{
			// 22 (ratio 0) and 21 (0.5) cover 1320 of the 1250; 20 (2.0),
			// dearest, stays in L2.
			name:  "a batch at L1+L2 under its range goes to L2 and spills into the bottom",
			files: append(batch("a", "m", 1100), tree...),
			out:   2, overlaps: []uint64{10, 11, 20, 21, 22},
			spill: []uint64{21, 22}, spillUnder: []uint64{31},
		},
		{
			name: "a skewed batch weighs only the bytes under its range",
			files: append(batch("a", "b", 300),
				fm(10, 1, "a", "c", 100), fm(11, 1, "d", "z", 5000),
				fm(20, 2, "a", "c", 200), fm(21, 2, "d", "z", 9000),
				fm(30, 3, "a", "z", 100_000)),
			out: 2, overlaps: []uint64{10, 20},
		},
		{
			name: "on four levels a batch outweighing L1+L2+L3 goes to L3",
			files: append(batch("a", "z", 1000),
				fm(10, 1, "a", "m", 100), fm(20, 2, "a", "z", 200), fm(30, 3, "a", "z", 700),
				fm(40, 4, "a", "z", 100_000)),
			out: 3, overlaps: []uint64{10, 20, 30},
		},
		{
			// L2 is the bottom: the merge writes L1 and spills into L2.
			name: "never into the bottom level",
			files: append(batch("a", "z", 1000),
				fm(10, 1, "a", "m", 100), fm(20, 2, "a", "z", 200)),
			out: 1, overlaps: []uint64{10},
			spill: []uint64{10}, spillUnder: []uint64{20},
		},
	}
	ids := func(files []*manifest.FileMeta) string {
		out := []uint64{}
		for _, f := range files {
			out = append(out, f.ID)
		}
		return fmt.Sprint(out)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := version(tc.files...)
			job := p.Pick(v, false)
			if job == nil || job.Level != 0 || len(job.Inputs) != 1 || job.Inputs[0].ID != 1 {
				t.Fatalf("job = %+v, want a merge of the oldest L0 file", job)
			}
			if job.OutputLevel != tc.out || ids(job.Overlaps) != ids(fms(tc.overlaps)) {
				t.Fatalf("L0->L%d over %s, want L0->L%d over %s (%s)", job.OutputLevel, ids(job.Overlaps), tc.out, ids(fms(tc.overlaps)), job.Why())
			}
			if ids(job.Spill) != ids(fms(tc.spill)) || ids(job.SpillOverlaps) != ids(fms(tc.spillUnder)) || ids(job.SpillKept) != ids(fms(tc.kept)) {
				t.Fatalf("spilled %s over %s keeping %s, want %v over %v keeping %v",
					ids(job.Spill), ids(job.SpillOverlaps), ids(job.SpillKept), tc.spill, tc.spillUnder, tc.kept)
			}
			// No file left on the output level overlaps the merge's range.
			taken := map[uint64]bool{}
			for _, f := range job.Overlaps {
				taken[f.ID] = true
			}
			lo, hi := KeyRangeOf(append(append([]*manifest.FileMeta(nil), job.Inputs...), job.Overlaps...))
			for _, f := range v.Overlap(job.OutputLevel, lo, hi) {
				if !taken[f.ID] {
					t.Fatalf("L%d file %d is under the merge's range but not consumed", job.OutputLevel, f.ID)
				}
			}
			deep := strings.HasPrefix(job.Note, "deep: ")
			if deep != (tc.out > 1) {
				t.Fatalf("note %q; a merge into L%d says why it went deep iff it did", job.Note, tc.out)
			}
		})
	}
}

// fms returns files with the given IDs, for comparing ID lists.
func fms(ids []uint64) []*manifest.FileMeta {
	out := make([]*manifest.FileMeta, len(ids))
	for i, id := range ids {
		out[i] = &manifest.FileMeta{ID: id}
	}
	return out
}

// TestTargets pins the sizing rule on hand-made trees (base 1000,
// LevelMultiplier 10; sizes are whole-level byte totals).
func TestTargets(t *testing.T) {
	const l1 = 1000
	p := NewPicker(PickerOptions{BaseLevelBytes: l1})
	static := [manifest.NumLevels]int64{0, l1, 10 * l1, 100 * l1, 1000 * l1, 10000 * l1, 100000 * l1}
	cases := []struct {
		name  string
		sizes []int64 // bytes of L1, L2, ...
		want  [manifest.NumLevels]int64
	}{
		{"empty tree", nil, static},
		{"L1 only", []int64{5000}, static},
		{"two levels: no intermediate level, the old ladder", []int64{900, 30000}, static},
		{"three levels, fan-out sqrt(16) = 4", []int64{900, 9000, 16 * l1},
			[manifest.NumLevels]int64{0, l1, 4 * l1, 100 * l1, 1000 * l1, 10000 * l1, 100000 * l1}},
		{"three levels, bottom past Multiplier^2: fan-out capped", []int64{900, 9000, 400 * l1}, static},
		{"four levels, fan-out cbrt(64) = 4", []int64{900, 900, 900, 64 * l1},
			[manifest.NumLevels]int64{0, l1, 4 * l1, 16 * l1, 1000 * l1, 10000 * l1, 100000 * l1}},
		{"a one-file new bottom level cannot collapse the ladder", []int64{900, 99000, 10},
			[manifest.NumLevels]int64{0, l1, 1250, 100 * l1, 1000 * l1, 10000 * l1, 100000 * l1}},
		{"a gap above the bottom level is still sized", []int64{900, 0, 0, 64 * l1},
			[manifest.NumLevels]int64{0, l1, 4 * l1, 16 * l1, 1000 * l1, 10000 * l1, 100000 * l1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var files []*manifest.FileMeta
			for i, sz := range tc.sizes {
				if sz > 0 {
					files = append(files, fm(uint64(i+1), i+1, "a", "z", sz))
				}
			}
			got := p.Targets(version(files...))
			for l := 1; l < manifest.NumLevels; l++ {
				// The fan-out is a float root; allow it a byte per level.
				if d := got[l] - tc.want[l]; d < -int64(l) || d > int64(l) {
					t.Fatalf("targets = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestTargetsProperties: on random trees L1's target is BaseLevelBytes,
// targets never decrease with depth, no level above the bottom one is more
// than LevelMultiplier times the one above it, none is larger than the static
// ladder allowed, and a tree at most two levels deep gets exactly the
// static ladder.
func TestTargetsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 2000; trial++ {
		l1 := int64(1 + rng.Intn(1<<20))
		const mult = LevelMultiplier
		p := NewPicker(PickerOptions{BaseLevelBytes: l1})
		depth := rng.Intn(manifest.NumLevels) // deepest non-empty level, 0 = none
		var files []*manifest.FileMeta
		for l := 1; l <= depth; l++ {
			if l < depth && rng.Intn(4) == 0 {
				continue // an empty level above the bottom
			}
			// From one tiny file to far past any target.
			size := int64(1 + rng.Float64()*math.Pow(float64(mult), float64(rng.Intn(8)))*float64(l1))
			files = append(files, fm(uint64(l), l, "a", "z", size))
		}
		got := p.Targets(version(files...))
		if got[1] != l1 {
			t.Fatalf("trial %d: target(1) = %d, want BaseLevelBytes %d", trial, got[1], l1)
		}
		static := l1
		for l := 2; l < manifest.NumLevels; l++ {
			static *= mult
			switch {
			case got[l] < got[l-1]:
				t.Fatalf("trial %d: targets decrease at L%d: %v", trial, l, got)
			case l < depth && got[l] > got[l-1]*mult:
				t.Fatalf("trial %d: fan-out into L%d exceeds %d: %v", trial, l, mult, got)
			case got[l] > static:
				t.Fatalf("trial %d: target(%d) = %d above the static ladder's %d", trial, l, got[l], static)
			case depth <= 2 && got[l] != static:
				t.Fatalf("trial %d: depth %d but target(%d) = %d, want the static %d", trial, depth, l, got[l], static)
			}
		}
	}
}

// sweepLevels builds an n-file L1 over an m-file L2 over a k-file bottom
// L3, each covering the same key space with sorted, disjoint files. Under
// deepPicker L1 is the furthest over its target, so it is the level to
// push.
func sweepLevels(n, m, k int) *manifest.Version {
	const span = 1 << 20
	var files []*manifest.FileMeta
	add := func(level, count int, idBase uint64) {
		for i := 0; i < count; i++ {
			lo, hi := i*span/count, (i+1)*span/count-1
			files = append(files, fm(idBase+uint64(i), level,
				fmt.Sprintf("%07d", lo), fmt.Sprintf("%07d", hi), int64(1000+i%7)))
		}
	}
	add(1, n, 1000)
	add(2, m, 100000)
	add(3, k, 1000000)
	return version(files...)
}

// BenchmarkPickMinOverlap: one pick sweeps each level it reads once, so
// the cost per file must not grow with the level sizes (an O(n*m) pick
// would make the 2000x4000x16000 case ten times dearer per file than the
// 200x400x1600 one). Each iteration makes every min-overlap choice: the
// push out of L1; the L1 ranges a baseline L0 merge over the whole key
// space, eight L1 files large, spills into L2 when L1 is at its target;
// and a deep merge's pick, whose batch outweighs L1 and L2: its L1 and L2
// overlaps and the L2 ranges it spills into the bottom level.
func BenchmarkPickMinOverlap(b *testing.B) {
	for _, size := range []struct{ n, m, k int }{{200, 400, 1600}, {2000, 4000, 16000}} {
		b.Run(fmt.Sprintf("%dx%dx%d", size.n, size.m, size.k), func(b *testing.B) {
			v := sweepLevels(size.n, size.m, size.k)
			push := deepPicker()
			withL0 := func(batch int64) *manifest.Version {
				nv, err := v.Apply(manifest.Edit{Added: []manifest.FileMeta{
					*fm(11, 0, "0", "9", batch), *fm(12, 0, "0", "9", 1), *fm(13, 0, "0", "9", 1), *fm(14, 0, "0", "9", 1),
				}})
				if err != nil {
					b.Fatal(err)
				}
				return nv
			}
			spilling, deep := withL0(8000), withL0(v.LevelSize(1)+v.LevelSize(2))
			l0 := NewPicker(PickerOptions{BaseLevelBytes: v.LevelSize(1)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if job := push.Pick(v, false); job == nil || job.Level != 1 {
					b.Fatalf("job = %+v", job)
				}
				if job := l0.Pick(spilling, false); job == nil || job.Level != 0 || job.OutputLevel != 1 || len(job.Spill) == 0 {
					b.Fatalf("job = %+v, want an L0 merge that spills", job)
				}
				if job := l0.Pick(deep, false); job == nil || job.OutputLevel != 2 || len(job.Spill) == 0 {
					b.Fatalf("job = %+v, want a deep L0 merge that spills into the bottom level", job)
				}
			}
			files := 3*(size.n+size.m) + size.k
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(files), "ns/file")
		})
	}
}

func TestKeyRangeOf(t *testing.T) {
	lo, hi := KeyRangeOf([]*manifest.FileMeta{fm(1, 0, "g", "m", 0), fm(2, 0, "a", "k", 0), fm(3, 0, "j", "z", 0)})
	if string(lo) != "a" || string(hi) != "z" {
		t.Fatalf("range = %q..%q", lo, hi)
	}
}
