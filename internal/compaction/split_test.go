package compaction

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/base"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// openTables opens the given table IDs newest-first.
func openTables(t testing.TB, fs vfs.FS, ids ...uint64) []sstable.Table {
	t.Helper()
	out := make([]sstable.Table, 0, len(ids))
	for _, id := range ids {
		r, err := sstable.Open(fs, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		out = append(out, r)
	}
	return out
}

// mergeKeys drains a merge+dedup over tables bounded to slc.
func mergeKeys(t testing.TB, tables []sstable.Table, slc Slice, drop bool) []string {
	t.Helper()
	var shared sstable.Merge
	defer shared.Close()
	m, err := NewSliceMerge(&shared, tables, slc)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDedupIterator(m, drop, nil)
	defer d.Close()
	var got []string
	for d.Next() {
		e := d.Entry()
		got = append(got, fmt.Sprintf("%s/%d=%s", e.Key, e.Seq, e.Value))
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// twoOverlappingTables builds a newer and an older table with many
// overlapping keys, small blocks (so there are plenty of separators),
// and some tombstones.
func twoOverlappingTables(t testing.TB, fs vfs.FS) []sstable.Table {
	t.Helper()
	var newer, older []base.Entry
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		older = append(older, e(key, uint64(1000+i), "old"))
		if i%2 == 0 {
			newer = append(newer, e(key, uint64(3000+i), "new"))
		} else if i%7 == 0 {
			newer = append(newer, del(key, uint64(3000+i)))
		}
	}
	buildTable(t, fs, 1, newer)
	buildTable(t, fs, 2, older)
	return openTables(t, fs, 1, 2)
}

func TestSplitJobCoversKeySpaceDisjointly(t *testing.T) {
	fs := vfs.NewMemFS()
	tables := twoOverlappingTables(t, fs)
	for _, k := range []int{2, 3, 4, 7} {
		slices := SplitJob(tables, k)
		if len(slices) < 2 {
			t.Fatalf("maxSlices=%d: got %d slices, want >= 2", k, len(slices))
		}
		if len(slices) > k {
			t.Fatalf("maxSlices=%d: got %d slices", k, len(slices))
		}
		// Contiguity: first lower and last upper unbounded, interior
		// boundaries shared and strictly ascending.
		if slices[0].Lower != nil || slices[len(slices)-1].Upper != nil {
			t.Fatalf("maxSlices=%d: edge slices bounded: %+v", k, slices)
		}
		for i := 0; i < len(slices)-1; i++ {
			if !bytes.Equal(slices[i].Upper, slices[i+1].Lower) {
				t.Fatalf("slice %d upper != slice %d lower", i, i+1)
			}
			if slices[i].Upper == nil {
				t.Fatalf("interior boundary %d is nil", i)
			}
			if i > 0 && bytes.Compare(slices[i-1].Upper, slices[i].Upper) >= 0 {
				t.Fatalf("boundaries not strictly ascending at %d", i)
			}
		}
	}
}

func TestSlicedMergeEqualsMonolithic(t *testing.T) {
	fs := vfs.NewMemFS()
	tables := twoOverlappingTables(t, fs)
	for _, drop := range []bool{false, true} {
		want := mergeKeys(t, tables, Slice{}, drop)
		for _, k := range []int{2, 3, 5, 8} {
			var got []string
			for _, slc := range SplitJob(tables, k) {
				got = append(got, mergeKeys(t, tables, slc, drop)...)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("drop=%v k=%d: sliced merge diverges from monolithic\n got %d entries\nwant %d entries",
					drop, k, len(got), len(want))
			}
		}
	}
}

func TestSplitJobDegenerate(t *testing.T) {
	fs := vfs.NewMemFS()
	// One tiny table: a single block has no interior separators.
	buildTable(t, fs, 1, []base.Entry{e("a", 1, "x"), e("b", 2, "y")})
	tables := openTables(t, fs, 1)
	if got := SplitJob(tables, 8); len(got) != 1 || got[0].Lower != nil || got[0].Upper != nil {
		t.Fatalf("tiny table: SplitJob = %+v, want one unbounded slice", got)
	}
	if got := SplitJob(tables, 1); len(got) != 1 {
		t.Fatalf("maxSlices=1: SplitJob = %+v", got)
	}
	if got := SplitJob(tables, 0); len(got) != 1 {
		t.Fatalf("maxSlices=0: SplitJob = %+v", got)
	}
}

func TestBoundedIterSeekGEClampsToSlice(t *testing.T) {
	fs := vfs.NewMemFS()
	tables := twoOverlappingTables(t, fs)
	slices := SplitJob(tables, 3)
	if len(slices) < 3 {
		t.Skipf("only %d slices", len(slices))
	}
	mid := slices[1]
	var shared sstable.Merge
	defer shared.Close()
	m, err := NewSliceMerge(&shared, tables, mid)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for m.Next() {
		k := m.Entry().Key
		if bytes.Compare(k, mid.Lower) < 0 || bytes.Compare(k, mid.Upper) >= 0 {
			t.Fatalf("key %q escaped slice [%q, %q)", k, mid.Lower, mid.Upper)
		}
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
}
