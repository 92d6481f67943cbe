package lsm

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sstable"
	"repro/internal/vfs"
)

// waitGoroutines polls until the goroutine count is back at (or below)
// want: a closed pool's workers have signalled done but may not have
// left the scheduler yet.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedOpenReleasesEverything: a store whose manifest references a
// truncated table fails to open, and the failed Open leaves no file
// handle, no goroutine and no block of its tenant in a shared cache.
func TestFailedOpenReleasesEverything(t *testing.T) {
	for _, triad := range []bool{false, true} {
		mem := vfs.NewMemFS()
		o := smallOptions(mem)
		if triad {
			o = triadSmall(mem)
		}
		o.DisableAutoCompaction = true // keep the flushed L0 tables where they are
		db := mustOpen(t, o)
		val := bytes.Repeat([]byte{7}, 100)
		for i := 0; i < 600; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		db.versionMu.RLock()
		l0 := db.version.Levels[0]
		if len(l0) < 2 {
			t.Fatalf("triad=%v: want at least two L0 tables, have %d", triad, len(l0))
		}
		// Levels[0] is newest first and recover opens it in order, so
		// truncating the oldest leaves tables opened before the failure.
		victim := sstable.FileName(l0[len(l0)-1].ID)
		if triad {
			victim = sstable.CLIndexFileName(l0[len(l0)-1].ID)
		}
		db.versionMu.RUnlock()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := mem.Create(victim) // Create truncates
		if err != nil {
			t.Fatal(err)
		}
		f.Close()

		before := runtime.NumGoroutine()
		open := countHandles(mem)
		cache := sstable.NewCache(1 << 20)
		o.BlockCache = cache
		if db, err := Open(o); err == nil {
			db.Close()
			t.Fatalf("triad=%v: Open succeeded over a truncated %s", triad, victim)
		}
		if n := open.Load(); n != 0 {
			t.Errorf("triad=%v: failed Open left %d file handles open", triad, n)
		}
		if st := cache.Stats(); st.Resident != 0 {
			t.Errorf("triad=%v: failed Open left %d bytes resident in the shared cache", triad, st.Resident)
		}
		waitGoroutines(t, before)
	}
}

// TestOpenCloseChurn opens and closes a bare engine (which owns its
// pool) 50 times on one filesystem, each time closing with a sealed
// memtable's flush and a compaction round still queued: no goroutine
// outlives a Close, and no sealed memtable is lost — every key of every
// round is there at the end.
func TestOpenCloseChurn(t *testing.T) {
	const rounds, perRound = 50, 60
	fs := vfs.NewMemFS()
	before := runtime.NumGoroutine()
	key := func(r, i int) []byte { return []byte(fmt.Sprintf("r%02d-k%03d", r, i)) }
	val := bytes.Repeat([]byte{3}, 120)
	for r := 0; r < rounds; r++ {
		db := mustOpen(t, triadSmall(fs))
		if r > 0 {
			for i := 0; i < perRound; i++ {
				if _, err := db.Get(key(r-1, i)); err != nil {
					t.Fatalf("round %d: %s from the previous round: %v", r, key(r-1, i), err)
				}
			}
		}
		for i := 0; i < perRound; i++ {
			if err := db.Put(key(r, i), val); err != nil {
				t.Fatal(err)
			}
		}
		db.mu.Lock()
		err := db.sealLocked("explicit") // queues the flush
		db.requestCompactLocked()
		db.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("round %d: close: %v", r, err)
		}
		waitGoroutines(t, before)
	}
	db := mustOpen(t, triadSmall(fs))
	defer db.Close()
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			if v, err := db.Get(key(r, i)); err != nil || !bytes.Equal(v, val) {
				t.Fatalf("%s after %d reopen cycles: %v", key(r, i), rounds, err)
			}
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
