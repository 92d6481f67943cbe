package compaction

import (
	"fmt"
	"sort"
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

func fm(id uint64, level int, lo, hi string, size int64) *manifest.FileMeta {
	return &manifest.FileMeta{ID: id, Kind: manifest.KindSST, Level: level, Size: size, Smallest: []byte(lo), Largest: []byte(hi)}
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

func TestPickerBaselineOneL0FileAtATime(t *testing.T) {
	p := NewPicker(PickerOptions{L0CompactionTrigger: 4, TriadDisk: false})
	v := version(
		fm(4, 0, "a", "z", 100), fm(3, 0, "a", "z", 100),
		fm(2, 0, "a", "z", 100), fm(1, 0, "a", "z", 100),
		fm(10, 1, "a", "m", 100), fm(11, 1, "n", "z", 100),
	)
	job := p.Pick(v, func(*manifest.FileMeta) *hll.Sketch { return nil })
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
	p := NewPicker(PickerOptions{L0CompactionTrigger: 4, TriadDisk: true, OverlapRatioThreshold: 0.4, MaxFilesL0: 6})
	// Four L0 files over the same keys: overlap ratio ≈ 0.75 ≥ 0.4.
	shared := sketchWith(1000, 0)
	v := version(
		fm(4, 0, "a", "z", 100), fm(3, 0, "a", "z", 100),
		fm(2, 0, "a", "z", 100), fm(1, 0, "a", "z", 100),
	)
	job := p.Pick(v, func(*manifest.FileMeta) *hll.Sketch { return shared })
	if job == nil || job.Deferred {
		t.Fatalf("job = %+v, want a real job", job)
	}
	if len(job.Inputs) != 4 {
		t.Fatalf("TRIAD picked %d L0 inputs, want all 4", len(job.Inputs))
	}
}

func TestPickerTriadDefersLowOverlap(t *testing.T) {
	p := NewPicker(PickerOptions{L0CompactionTrigger: 4, TriadDisk: true, OverlapRatioThreshold: 0.4, MaxFilesL0: 6})
	v := version(
		fm(4, 0, "a", "z", 100), fm(3, 0, "a", "z", 100),
		fm(2, 0, "a", "z", 100), fm(1, 0, "a", "z", 100),
	)
	// Disjoint sketches: overlap ≈ 0 < 0.4 → defer.
	job := p.Pick(v, func(f *manifest.FileMeta) *hll.Sketch { return sketchWith(1000, int(f.ID)) })
	if job == nil || !job.Deferred {
		t.Fatalf("job = %+v, want deferred", job)
	}
}

func TestPickerTriadForcesAtMaxFiles(t *testing.T) {
	p := NewPicker(PickerOptions{L0CompactionTrigger: 4, TriadDisk: true, OverlapRatioThreshold: 0.4, MaxFilesL0: 6})
	var files []*manifest.FileMeta
	for id := uint64(1); id <= 6; id++ {
		files = append(files, fm(id, 0, "a", "z", 100))
	}
	v := version(files...)
	// Still disjoint, but MAX_FILES_L0 reached → compact anyway.
	job := p.Pick(v, func(f *manifest.FileMeta) *hll.Sketch { return sketchWith(1000, int(f.ID)) })
	if job == nil || job.Deferred {
		t.Fatalf("job = %+v, want forced compaction", job)
	}
	if len(job.Inputs) != 6 {
		t.Fatalf("forced compaction picked %d inputs, want 6", len(job.Inputs))
	}
}

func TestPickerSizeTriggeredDeeperLevels(t *testing.T) {
	p := NewPicker(PickerOptions{L0CompactionTrigger: 4, BaseLevelBytes: 1000, Multiplier: 10})
	v := version(
		fm(1, 1, "a", "m", 800), fm(2, 1, "n", "z", 900), // L1 = 1700 > 1000
		fm(3, 2, "a", "z", 500),
	)
	job := p.Pick(v, func(*manifest.FileMeta) *hll.Sketch { return nil })
	if job == nil || job.Level != 1 || len(job.Inputs) != 1 {
		t.Fatalf("job = %+v", job)
	}
	if len(job.Overlaps) != 1 || job.Overlaps[0].ID != 3 {
		t.Fatalf("overlaps = %v", job.Overlaps)
	}
}

func TestPickerNothingToDo(t *testing.T) {
	p := NewPicker(DefaultPickerOptions())
	v := version(fm(1, 1, "a", "m", 100))
	if job := p.Pick(v, func(*manifest.FileMeta) *hll.Sketch { return nil }); job != nil {
		t.Fatalf("job = %+v, want nil", job)
	}
}

// deepPicker has L1 over its 100-byte target, so Pick always pushes an
// L1 file into L2.
func deepPicker() *Picker {
	return NewPicker(PickerOptions{L0CompactionTrigger: 4, BaseLevelBytes: 100, Multiplier: 1000})
}

// TestPickerMinOverlap: a push into an intermediate level (something
// lives below the output level) takes the file with the smallest
// overlapped-bytes / own-bytes ratio, first such file on ties, and a
// file with nothing under it becomes a move.
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
			v := version(append(tc.files, bottom)...)
			for lap := 0; lap < 2; lap++ { // the choice carries no state
				job := deepPicker().Pick(v, nil)
				if job == nil || job.Level != 1 || job.OutputLevel != 2 || len(job.Inputs) != 1 {
					t.Fatalf("job = %+v", job)
				}
				if job.Inputs[0].ID != tc.wantID {
					t.Fatalf("picked file %d, want %d", job.Inputs[0].ID, tc.wantID)
				}
				var got []uint64
				for _, f := range job.Overlaps {
					got = append(got, f.ID)
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.overlaps) {
					t.Fatalf("overlaps = %v, want %v", got, tc.overlaps)
				}
				if job.Move != tc.move {
					t.Fatalf("Move = %v, want %v", job.Move, tc.move)
				}
			}
		})
	}
}

// TestPickerBottommostPushCyclesKeySpace: nothing lives below the output
// level, so the push walks the cursor — every file once per lap — even
// though one file would win every min-overlap pick.
func TestPickerBottommostPushCyclesKeySpace(t *testing.T) {
	v := version(
		fm(1, 1, "a", "f", 100), fm(2, 1, "g", "m", 100), fm(3, 1, "n", "s", 100), fm(4, 1, "t", "z", 100),
		fm(10, 2, "a", "f", 900), fm(11, 2, "g", "m", 10), fm(12, 2, "n", "s", 900),
	)
	p := deepPicker()
	for lap := 0; lap < 3; lap++ {
		seen := map[uint64]int{}
		for range v.Levels[1] {
			job := p.Pick(v, nil)
			in := job.Inputs[0]
			seen[in.ID]++
			if want := v.Overlap(2, in.Smallest, in.Largest); fmt.Sprint(job.Overlaps) != fmt.Sprint(want) {
				t.Fatalf("file %d: overlaps = %v, want %v", in.ID, job.Overlaps, want)
			}
			if job.Move != (in.ID == 4) {
				t.Fatalf("file %d: Move = %v", in.ID, job.Move)
			}
		}
		for _, f := range v.Levels[1] {
			if seen[f.ID] != 1 {
				t.Fatalf("lap %d: file %d picked %d times, want once (%v)", lap, f.ID, seen[f.ID], seen)
			}
		}
	}
}

// sweepLevels builds an n-file level over an m-file level covering the
// same key space, both sorted and disjoint, with something below them.
func sweepLevels(n, m int) *manifest.Version {
	const span = 1 << 20
	files := []*manifest.FileMeta{fm(1, 3, "0", "9", 1)}
	add := func(level, count int, idBase uint64) {
		for i := 0; i < count; i++ {
			lo, hi := i*span/count, (i+1)*span/count-1
			files = append(files, fm(idBase+uint64(i), level,
				fmt.Sprintf("%07d", lo), fmt.Sprintf("%07d", hi), int64(1000+i%7)))
		}
	}
	add(1, n, 1000)
	add(2, m, 100000)
	return version(files...)
}

// BenchmarkPickMinOverlap: one pick sweeps both levels once, so the cost
// per file must not grow with the level sizes (an O(n*m) pick would make
// the 2000x4000 case ten times dearer per file than the 200x400 one).
func BenchmarkPickMinOverlap(b *testing.B) {
	for _, size := range []struct{ n, m int }{{200, 400}, {2000, 4000}} {
		b.Run(fmt.Sprintf("%dx%d", size.n, size.m), func(b *testing.B) {
			v := sweepLevels(size.n, size.m)
			p := deepPicker()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if job := p.Pick(v, nil); job == nil || job.Level != 1 {
					b.Fatalf("job = %+v", job)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size.n+size.m), "ns/file")
		})
	}
}

func TestKeyRangeOf(t *testing.T) {
	lo, hi := KeyRangeOf([]*manifest.FileMeta{fm(1, 0, "g", "m", 0), fm(2, 0, "a", "k", 0), fm(3, 0, "j", "z", 0)})
	if string(lo) != "a" || string(hi) != "z" {
		t.Fatalf("range = %q..%q", lo, hi)
	}
}
