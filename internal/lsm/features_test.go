package lsm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/manifest"
	"repro/internal/vfs"
)

// --- Write batches ---

func TestBatchAtomicVisibility(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("b-%03d", i)), []byte("v"))
	}
	b.Delete([]byte("b-050"))
	if b.Len() != 101 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, err := db.Get([]byte(fmt.Sprintf("b-%03d", i)))
		if i == 50 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted batch key: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("batch key %d: %v", i, err)
		}
	}
	// Double-apply is rejected; Reset re-arms.
	if err := db.Apply(&b); err == nil {
		t.Fatal("double Apply succeeded")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset kept ops")
	}
	b.Put([]byte("again"), []byte("v"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEmptyKeyRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	var b Batch
	b.Put(nil, []byte("v"))
	if err := db.Apply(&b); err == nil {
		t.Fatal("batch with empty key accepted")
	}
}

func TestBatchSurvivesRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, triadSmall(fs))
	var b Batch
	for i := 0; i < 500; i++ {
		b.Put([]byte(fmt.Sprintf("b-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2 := mustOpen(t, triadSmall(fs))
	for i := 0; i < 500; i++ {
		v, err := db2.Get([]byte(fmt.Sprintf("b-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered batch key %d = %q, %v", i, v, err)
		}
	}
}

// --- Block cache ---

func TestBlockCacheReducesDiskReads(t *testing.T) {
	run := func(cacheBytes int64) (ra float64, hits int64) {
		fs := vfs.NewMemFS()
		o := smallOptions(fs)
		o.BlockCacheBytes = cacheBytes
		db := mustOpen(t, o)
		defer db.Close()
		for i := 0; i < 1000; i++ {
			db.Put([]byte(fmt.Sprintf("key-%05d", i)), make([]byte, 100))
		}
		db.Flush()
		db.CompactAll()
		// Hammer a small working set of keys.
		for round := 0; round < 20; round++ {
			for i := 0; i < 50; i++ {
				if _, err := db.Get([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db.Metrics().ReadAmplification(), db.BlockCacheStats().Hits
	}
	raCold, hitsCold := run(0)
	raHot, hitsHot := run(4 << 20)
	if hitsCold != 0 {
		t.Fatalf("disabled cache recorded %d hits", hitsCold)
	}
	if hitsHot == 0 {
		t.Fatal("enabled cache never hit")
	}
	if raHot >= raCold {
		t.Fatalf("cache did not reduce RA: %.3f >= %.3f", raHot, raCold)
	}
}

// --- Lookup cost by level ---

// TestGetsDecomposeByLevel: every table a lookup probes is charged to its
// level, with the disk reads it cost, block and log reads apart, and each
// probe is exactly one of a filter negative, a filter false positive or the
// hit that answers the lookup. Log reads happen only where CL-SSTables live
// (L0 under TRIAD-LOG), and over all levels the reads sum exactly to
// TableDiskReads — snapshot lookups included.
func TestGetsDecomposeByLevel(t *testing.T) {
	o := triadSmall(vfs.NewMemFS())
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	put := func(from, to int, value string) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(value)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	put(0, 2000, "old")
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	put(500, 700, "new") // an L0 CL-SSTable over part of the tree
	if files := db.NumLevelFiles(); files[0] == 0 || files[1]+files[2] == 0 {
		t.Fatalf("want L0 over deeper levels, have %v", files)
	}
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	// hits[l] counts the lookups level l answers: L0 holds the new values,
	// and an old one is in the first deeper level that has it.
	var hits [manifest.NumLevels]int64
	for i := 0; i < 2000; i += 3 {
		key := []byte(fmt.Sprintf("key-%05d", i))
		want := "old"
		if i >= 500 && i < 700 {
			want = "new"
		}
		for _, get := range []func([]byte) ([]byte, error){db.Get, snap.Get} {
			if v, err := get(key); err != nil || string(v) != want {
				t.Fatalf("Get(%s) = %q, %v; want %q", key, v, err, want)
			}
			if _, err := get(append(key, '~')); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%s~) = %v, want not found", key, err)
			}
		}
		home := 0
		for l := 1; want == "old" && l < manifest.NumLevels; l++ {
			if _, ok := entryAt(t, db, l, key); ok {
				home = l
				break
			}
		}
		hits[home] += 2 // db.Get and snap.Get
	}

	var reads, negatives, falsePositives int64
	for l, ls := range db.LevelStats() {
		reads += ls.BlockReads + ls.LogReads
		negatives += ls.FilterNegatives
		falsePositives += ls.FilterFalsePositives
		if ls.Probes > 0 && ls.Files == 0 {
			t.Fatalf("L%d: %+v", l, ls)
		}
		if ls.FilterNegatives+ls.FilterFalsePositives+hits[l] != ls.Probes {
			t.Fatalf("L%d: %d probes are not %d filter negatives + %d false positives + %d hits", l,
				ls.Probes, ls.FilterNegatives, ls.FilterFalsePositives, hits[l])
		}
		if l == 0 && ls.LogReads == 0 || l > 0 && ls.LogReads != 0 {
			t.Fatalf("L%d charged %d log reads; only L0's CL-SSTables hold values in logs", l, ls.LogReads)
		}
	}
	if m := db.Metrics(); reads != m.TableDiskReads || reads == 0 {
		t.Fatalf("levels charged %d reads, TableDiskReads = %d", reads, m.TableDiskReads)
	}
	if negatives == 0 || falsePositives == 0 {
		t.Fatalf("%d filter negatives, %d false positives: want both", negatives, falsePositives)
	}
}
