package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/vfs"
)

func TestFlushEmptyDB(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Flushes; got != 0 {
		t.Fatalf("empty flush counted: %d", got)
	}
}

func TestLargeValues(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	db := mustOpen(t, o)
	// Values bigger than the memtable budget must still round-trip.
	big := bytes.Repeat([]byte{0xAB}, int(o.MemtableBytes)+1000)
	if err := clocked(db).Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("big value corrupted: len=%d err=%v", len(v), err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err = db.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("big value corrupted after flush: len=%d err=%v", len(v), err)
	}
}

func TestEmptyValue(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	if err := clocked(db).Put([]byte("k"), []byte{}); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("empty value = %q", v)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); err != nil {
		t.Fatalf("empty value lost on flush: %v", err)
	}
}

func TestDeleteAbsentKey(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	if err := clocked(db).Delete([]byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after deleting absent key = %v", err)
	}
	// Tombstone survives a flush without resurrecting anything.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone lost: %v", err)
	}
}

// TestWriteBackpressure: writers stall rather than grow the flush queue
// without bound, and no write is lost.
func TestWriteBackpressure(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.MemtableBytes = 4 << 10 // rotate constantly
	db := mustOpen(t, o)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("w%d-%04d", w, i)
				if err := clocked(db).Put([]byte(key), bytes.Repeat([]byte{1}, 100)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	db.mu.Lock()
	queued := len(db.mems) - 1
	db.mu.Unlock()
	if queued > maxImmutableMemtables+1 {
		t.Fatalf("flush queue grew to %d", queued)
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("w%d-%04d", w, i)
			if _, err := db.Get([]byte(key)); err != nil {
				t.Fatalf("lost %s: %v", key, err)
			}
		}
	}
}

// TestL0StallBoundsFileCount: under sustained write pressure the L0 file
// count stays near the stop-writes trigger instead of growing without
// bound (the flush worker alone could outrun compaction forever).
func TestL0StallBoundsFileCount(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	maxL0 := 0
	for i := 0; i < 10000; i++ {
		if err := clocked(db).Put([]byte(fmt.Sprintf("key-%06d", i)), bytes.Repeat([]byte{1}, 150)); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			if n := db.NumLevelFiles()[0]; n > maxL0 {
				maxL0 = n
			}
		}
	}
	// A small overshoot is possible (flushes in flight while stalled).
	if maxL0 > l0StallFiles+maxImmutableMemtables+1 {
		t.Fatalf("L0 grew to %d files despite stall trigger %d", maxL0, l0StallFiles)
	}
	if maxL0 == 0 {
		t.Fatal("workload never built L0 files; test ineffective")
	}
}

// TestIteratorDuringCompaction: a snapshot taken mid-stream stays
// consistent while flushes and compactions proceed underneath.
func TestIteratorDuringCompaction(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, triadSmall(fs))
	for i := 0; i < 1000; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v1"))
	}
	it, err := clocked(db).NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// Mutate heavily after the snapshot.
	for i := 0; i < 1000; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v2"))
	}
	db.Flush()
	n := 0
	for it.Next() {
		if string(it.Value()) != "v1" {
			t.Fatalf("snapshot leaked a later write: %q", it.Value())
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("snapshot has %d entries, want 1000", n)
	}
}

// TestDoubleRecovery: open/close/open/close/open preserves data and
// allocator monotonicity.
func TestDoubleRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	for round := 0; round < 3; round++ {
		db := mustOpen(t, triadSmall(fs))
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("r%d-%04d", round, i)
			if err := clocked(db).Put([]byte(key), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		// Verify everything from all previous rounds.
		for r := 0; r <= round; r++ {
			for i := 0; i < 500; i += 97 {
				key := fmt.Sprintf("r%d-%04d", r, i)
				if _, err := db.Get([]byte(key)); err != nil {
					t.Fatalf("round %d lost %s: %v", round, key, err)
				}
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryIgnoresTornManifestTail is covered at the manifest level;
// here we check the engine survives a truncated current log.
func TestRecoveryTornLogTail(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	for i := 0; i < 100; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	// Simulate a crash: abandon the handle, then truncate the newest log
	// by rewriting it minus its last 5 bytes.
	names, _ := fs.List("")
	var newest string
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".log" {
			newest = n
		}
	}
	f, _ := fs.Open(newest)
	size, _ := f.Size()
	buf := make([]byte, size-5)
	f.ReadAt(buf, 0)
	f.Close()
	w, _ := fs.Create(newest)
	w.Write(buf)
	w.Close()

	db2 := mustOpen(t, smallOptions(fs))
	// All but (at most) the final record must be present.
	missing := 0
	for i := 0; i < 100; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			missing++
		}
	}
	if missing > 1 {
		t.Fatalf("torn tail lost %d records, want ≤1", missing)
	}
	db.Close()
}

// TestGetHonoursNewestVersionAcrossLevels: version resolution order is
// memtable > immutables > L0 (newest first) > deeper levels.
func TestGetHonoursNewestVersionAcrossLevels(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	// Version 1 → flushed to L0, compacted to L1.
	clocked(db).Put([]byte("k"), []byte("v1"))
	for i := 0; i < 200; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("fill-a-%04d", i)), make([]byte, 64))
	}
	db.Flush()
	db.CompactAll()
	// Version 2 → flushed to L0.
	clocked(db).Put([]byte("k"), []byte("v2"))
	for i := 0; i < 200; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("fill-b-%04d", i)), make([]byte, 64))
	}
	db.Flush()
	// Version 3 → memtable only.
	clocked(db).Put([]byte("k"), []byte("v3"))
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v3" {
		t.Fatalf("Get = %q, %v; want v3 (memtable wins)", v, err)
	}
	// Drop the memtable version from visibility by flushing; L0 must win
	// over L1 with v3 now in L0 too. Re-put v2-era key ordering check:
	db.Flush()
	v, err = db.Get([]byte("k"))
	if err != nil || string(v) != "v3" {
		t.Fatalf("Get after flush = %q, %v; want v3 (newest L0 wins)", v, err)
	}
}

// TestLevelFillAndInvariants: sustained load pushes data into deeper
// levels while the version invariants hold.
func TestLevelFillAndInvariants(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.BaseLevelBytes = 32 << 10 // tiny L1 so L2 fills
	db := mustOpen(t, o)
	for i := 0; i < 6000; i++ {
		key := fmt.Sprintf("key-%06d", i%2000)
		if err := clocked(db).Put([]byte(key), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	db.CompactAll()
	db.versionMu.RLock()
	err := db.version.CheckInvariants()
	db.versionMu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	levels := db.NumLevelFiles()
	deep := 0
	for _, n := range levels[1:] {
		deep += n
	}
	if deep == 0 {
		t.Fatalf("no files below L0 after sustained load: %v", levels)
	}
	// Every key resolves to its latest value length.
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		v, err := db.Get([]byte(key))
		if err != nil || len(v) != 100 {
			t.Fatalf("Get(%s) = %d bytes, %v", key, len(v), err)
		}
	}
}
