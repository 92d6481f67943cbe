package lsm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// --- Write batches ---

func TestBatchAtomicVisibility(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	defer db.Close()
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
	defer db.Close()
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
	defer db2.Close()
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
		h, _ := db.CacheStats()
		return db.Metrics().ReadAmplification(), h
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

// --- Size-tiered compaction ---

func sizeTieredOpts(fs *vfs.MemFS) Options {
	o := smallOptions(fs)
	o.SizeTieredCompaction = true
	o.MinMergeWidth = 4
	return o
}

func TestSizeTieredBasic(t *testing.T) {
	fs := vfs.NewMemFS()
	o := sizeTieredOpts(fs)
	db := mustOpen(t, o)
	defer db.Close()
	for i := 0; i < 6000; i++ {
		key := fmt.Sprintf("key-%05d", i%1000)
		if err := db.Put([]byte(key), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// Everything lives in L0; deeper levels stay empty.
	files := db.NumLevelFiles()
	for l := 1; l < len(files); l++ {
		if files[l] != 0 {
			t.Fatalf("size-tiered put files on L%d: %v", l, files)
		}
	}
	if db.Metrics().Compactions == 0 {
		t.Fatal("no size-tiered merge ran")
	}
	// Latest values win.
	for i := 5000; i < 6000; i++ {
		key := fmt.Sprintf("key-%05d", i%1000)
		v, err := db.Get([]byte(key))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("Get(%s) = %q, %v; want v-%d", key, v, err, i)
		}
	}
}

func TestSizeTieredModelBased(t *testing.T) {
	fs := vfs.NewMemFS()
	o := sizeTieredOpts(fs)
	o.TriadMem, o.TriadDisk, o.TriadLog = true, true, true
	db := mustOpen(t, o)
	defer db.Close()
	oracle := map[string]string{}
	for i := 0; i < 6000; i++ {
		k := fmt.Sprintf("key-%04d", (i*37)%400)
		switch i % 11 {
		case 0:
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(oracle, k)
		default:
			v := fmt.Sprintf("v-%d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		}
	}
	for k, want := range oracle {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, want)
		}
	}
	// Deleted keys stay deleted.
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, live := oracle[k]; live {
			continue
		}
		if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %s resurrected: %v", k, err)
		}
	}
}

// TestSizeTieredMergeConvergesWithSmallTargetFile is a regression test:
// size-tiered merges must emit one output table even when it exceeds
// TargetFileBytes, otherwise the split recreates same-sized files that
// the bucketer re-merges forever.
func TestSizeTieredMergeConvergesWithSmallTargetFile(t *testing.T) {
	fs := vfs.NewMemFS()
	o := sizeTieredOpts(fs)
	o.TargetFileBytes = 8 << 10 // far below the merged output size
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	defer db.Close()
	for batch := 0; batch < 6; batch++ {
		for i := 0; i < 300; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k-%d-%04d", batch, i)), make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Must terminate (the package test timeout is the guard).
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	files := db.NumLevelFiles()[0]
	if files > 2 {
		t.Fatalf("size-tiered CompactAll left %d files", files)
	}
	compactions := db.Metrics().Compactions
	if compactions > 10 {
		t.Fatalf("size-tiered needed %d merges; loop suspected", compactions)
	}
}

func TestSizeTieredRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	o := sizeTieredOpts(fs)
	db := mustOpen(t, o)
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i%500)), []byte(fmt.Sprintf("v-%d", i)))
	}
	db.Close()
	db2 := mustOpen(t, o)
	defer db2.Close()
	for i := 2500; i < 3000; i++ {
		key := fmt.Sprintf("key-%04d", i%500)
		v, err := db2.Get([]byte(key))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("recovered Get(%s) = %q, %v", key, v, err)
		}
	}
}

// TestSizeTieredTriadDiskPicksDuplicateDenseBuckets: with duplicate-heavy
// L0 contents TRIAD-DISK merges; with disjoint contents it defers.
func TestSizeTieredTriadDiskDefers(t *testing.T) {
	fs := vfs.NewMemFS()
	o := sizeTieredOpts(fs)
	o.TriadDisk = true
	o.MaxMergeWidth = 16
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	defer db.Close()
	// Four similar-size files with disjoint keys.
	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 200; i++ {
			db.Put([]byte(fmt.Sprintf("b%d-%04d", batch, i)), make([]byte, 64))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ran, err := db.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("size-tiered TRIAD-DISK merged disjoint files")
	}
	if db.Metrics().CompactionsDeferred == 0 {
		t.Fatal("no deferral recorded")
	}
	// Now four files with identical key sets → overlap high → merge.
	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 200; i++ {
			db.Put([]byte(fmt.Sprintf("dup-%04d", i)), make([]byte, 64))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ran, err = db.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("size-tiered TRIAD-DISK did not merge duplicate-dense bucket")
	}
}
