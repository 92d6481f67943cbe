package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgsched"
	"repro/internal/leakcheck"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// TestFailedOpenReleasesEverything: a store whose manifest references a
// truncated table fails to open because of that table, and the failed Open
// leaves no file handle, nothing of its own on the caller's pool, no
// goroutine once that pool is closed and no block of its tenant in a
// shared cache.
func TestFailedOpenReleasesEverything(t *testing.T) {
	for _, triad := range []bool{false, true} {
		mem := vfs.NewMemFS()
		o := smallOptions(mem)
		if triad {
			o = triadSmall(mem)
		}
		o.DisableAutoCompaction = true // keep the flushed L0 tables where they are
		pool := bgsched.NewPool(bgsched.DefaultWorkers(1))
		o.Scheduler = pool
		db := mustOpen(t, o)
		val := bytes.Repeat([]byte{7}, 100)
		for i := 0; i < 600; i++ {
			if err := clocked(db).Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
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

		open := leakcheck.Handles(mem, nil)
		cache := sstable.NewCache(1 << 20)
		o.BlockCache = cache
		db, err = Open(o)
		if err == nil {
			db.Close()
			t.Fatalf("triad=%v: Open succeeded over a truncated %s", triad, victim)
		}
		if !strings.Contains(err.Error(), "recover table") {
			t.Errorf("triad=%v: Open over a truncated %s failed for another reason: %v", triad, victim, err)
		}
		if n := open.Load(); n != 0 {
			t.Errorf("triad=%v: failed Open left %d file handles open", triad, n)
		}
		if n := cache.Resident(); n != 0 {
			t.Errorf("triad=%v: failed Open left %d bytes resident in the shared cache", triad, n)
		}
		checkPoolIdle(t, pool)
		pool.Close()
		leakcheck.NoGoroutines(t)
	}
}

// TestCloseReleasesCacheTenant: a store over a caller-owned block cache
// gives back every block it cached when it closes, so a long-lived cache
// shared by many stores does not keep the bytes of closed ones.
func TestCloseReleasesCacheTenant(t *testing.T) {
	cache := sstable.NewCache(1 << 20)
	o := smallOptions(vfs.NewMemFS())
	o.BlockCache = cache
	db := mustOpen(t, o)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	val := bytes.Repeat([]byte{5}, 100)
	for i := 0; i < 400; i++ {
		if err := clocked(db).Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Repeat the reads so the admission policy lets the blocks in.
	for round := 0; round < 3; round++ {
		for i := 0; i < 400; i++ {
			if _, err := db.Get(key(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cache.Resident() == 0 {
		t.Fatal("reads left no block resident in the cache")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := cache.Resident(); n != 0 {
		t.Fatalf("closed store left %d bytes resident in the shared cache", n)
	}
}

// TestOpenCloseChurn opens and closes an engine 50 times on one
// filesystem and one pool, each time closing with a sealed memtable's
// flush and a compaction round still queued: no Close leaves a task of its
// store queued or running on the pool, closing the pool then leaves no
// goroutine, and no sealed memtable is lost — every key of every round is
// there at the end.
func TestOpenCloseChurn(t *testing.T) {
	const rounds, perRound = 50, 60
	fs := vfs.NewMemFS()
	key := func(r, i int) []byte { return []byte(fmt.Sprintf("r%02d-k%03d", r, i)) }
	val := bytes.Repeat([]byte{3}, 120)
	o := triadSmall(fs)
	pool := bgsched.NewPool(bgsched.DefaultWorkers(1))
	o.Scheduler = pool
	for r := 0; r < rounds; r++ {
		db := mustOpen(t, o)
		if r > 0 {
			for i := 0; i < perRound; i++ {
				if _, err := db.Get(key(r-1, i)); err != nil {
					t.Fatalf("round %d: %s from the previous round: %v", r, key(r-1, i), err)
				}
			}
		}
		for i := 0; i < perRound; i++ {
			if err := clocked(db).Put(key(r, i), val); err != nil {
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
		checkPoolIdle(t, pool)
	}
	pool.Close()
	leakcheck.NoGoroutines(t)
	db := mustOpen(t, triadSmall(fs))
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

// checkPoolIdle fails t unless pool, whose only stores have closed, has no
// task queued or running: a store's Close cancels its queued tasks and
// waits out its running ones.
func checkPoolIdle(t *testing.T, pool *bgsched.Pool) {
	t.Helper()
	if st := pool.Stats(); st.Busy != 0 || st.QueuedTotal() != 0 {
		t.Errorf("closed stores left %d tasks running and %d queued on the pool", st.Busy, st.QueuedTotal())
	}
}

// TestOpenRequiresScheduler: Open without a background pool fails with an
// error that names the missing option, before it touches the filesystem,
// and leaves no file handle open and no goroutine running.
func TestOpenRequiresScheduler(t *testing.T) {
	mem := vfs.NewMemFS()
	var ops atomic.Int64
	open := leakcheck.Handles(mem, func(vfs.Op) error { ops.Add(1); return nil })
	db, err := Open(smallOptions(mem))
	if err == nil {
		db.Close()
		t.Fatal("Open succeeded without a Scheduler")
	}
	if !strings.Contains(err.Error(), "Scheduler") {
		t.Errorf("Open without a Scheduler: %v; want an error naming Options.Scheduler", err)
	}
	if n := ops.Load(); n != 0 {
		t.Errorf("Open without a Scheduler made %d filesystem calls, want none", n)
	}
	if n := open.Load(); n != 0 {
		t.Errorf("Open without a Scheduler left %d file handles open", n)
	}
	leakcheck.NoGoroutines(t)
}

// isTable reports whether name is a table file: an SSTable or a
// CL-SSTable's index.
func isTable(name string) bool {
	return strings.HasSuffix(name, ".sst") || strings.HasSuffix(name, ".clidx")
}

// TestFailedFlushKeepsWritesReadable: a flush whose table fails to sync
// leaves its memtable queued, so every acknowledged write still reads
// through Get and through a snapshot taken after the failure, and a
// reopen finds them all.
func TestFailedFlushKeepsWritesReadable(t *testing.T) {
	for _, triad := range []bool{false, true} {
		fs := vfs.NewMemFS()
		o := DefaultOptions(fs)
		if triad {
			o = TriadOptions(fs)
		}
		db := mustOpen(t, o)
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
		val := func(i int) string { return fmt.Sprintf("value-%03d", i) }
		for i := 0; i < 100; i++ {
			if err := clocked(db).Put(key(i), []byte(val(i))); err != nil {
				t.Fatal(err)
			}
		}
		fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
			if op.Kind == vfs.OpSync && isTable(op.Name) {
				return vfs.ErrInjected
			}
			return nil
		}})
		if err := db.Flush(); !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("triad=%v: Flush with failing table syncs: %v", triad, err)
		}
		snap, err := clocked(db).NewSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if v, err := db.Get(key(i)); err != nil || string(v) != val(i) {
				t.Fatalf("triad=%v: Get(%s) after the failed flush: %q, %v", triad, key(i), v, err)
			}
			if v, err := snap.Get(key(i)); err != nil || string(v) != val(i) {
				t.Fatalf("triad=%v: snapshot Get(%s) after the failed flush: %q, %v", triad, key(i), v, err)
			}
		}
		snap.Close()
		if err := db.Close(); !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("triad=%v: Close after the failed flush: %v", triad, err)
		}
		fs.SetHooks(vfs.Hooks{})
		db = mustOpen(t, o)
		for i := 0; i < 100; i++ {
			if v, err := db.Get(key(i)); err != nil || string(v) != val(i) {
				t.Fatalf("triad=%v: Get(%s) after reopen: %q, %v", triad, key(i), v, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStalledWriterGetsFlushError: a writer stalled on a full flush queue
// returns the error of the flush that failed instead of waiting on a queue
// that no longer drains.
func TestStalledWriterGetsFlushError(t *testing.T) {
	for _, triad := range []bool{false, true} {
		fs := vfs.NewMemFS()
		o := smallOptions(fs)
		if triad {
			o = triadSmall(fs)
		}
		o.DisableAutoCompaction = true
		fail := make(chan struct{})
		fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
			if op.Kind == vfs.OpCreate && isTable(op.Name) {
				<-fail // the first flush parks until the queue is full
				return vfs.ErrInjected
			}
			return nil
		}})
		db := mustOpen(t, o)
		done := make(chan error, 1)
		go func() {
			val := bytes.Repeat([]byte{5}, 100)
			for i := 0; ; i++ {
				if err := clocked(db).Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
					done <- err
					return
				}
			}
		}()
		for full := false; !full; time.Sleep(time.Millisecond) {
			db.mu.Lock()
			full = len(db.mems) > 1+maxImmutableMemtables
			db.mu.Unlock()
		}
		close(fail)
		select {
		case err := <-done:
			if !errors.Is(err, vfs.ErrInjected) {
				t.Errorf("triad=%v: stalled writer returned %v, want the flush's error", triad, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("triad=%v: writer still stalled 10 s after its flush failed", triad)
		}
		db.Close()
	}
}

// TestFaultsLeaveNoHandleOpen fails every write, sync, create, remove or
// rename of one kind of file from halfway through a load on: the Flush and
// Close that follow return within 10 s and leave no file handle open, and
// a reopen without faults reads every write that was acknowledged. Only
// the journal is ever renamed, so no other file has a rename cell.
func TestFaultsLeaveNoHandleOpen(t *testing.T) {
	const puts = 3000
	for _, file := range []string{".log", ".sst", ".clidx", "MANIFEST"} {
		for _, kind := range []vfs.OpKind{vfs.OpWrite, vfs.OpSync, vfs.OpCreate, vfs.OpRemove, vfs.OpRename} {
			if kind == vfs.OpRename && file != "MANIFEST" {
				continue
			}
			for _, triad := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/triad=%v", file, kind, triad), func(t *testing.T) {
					fs := vfs.NewMemFS()
					o := smallOptions(fs)
					if triad {
						o = triadSmall(fs)
					}
					var armed atomic.Bool
					open := leakcheck.Handles(fs, func(op vfs.Op) error {
						if armed.Load() && op.Kind == kind && strings.Contains(op.Name, file) {
							return vfs.ErrInjected
						}
						return nil
					})
					db := mustOpen(t, o)
					acked := map[string]string{}
					for i := 0; i < puts; i++ {
						armed.Store(i >= puts/2)
						k, v := fmt.Sprintf("key-%05d", i*7919%puts), fmt.Sprintf("value-%05d-%s", i, bytes.Repeat([]byte{'v'}, 80))
						if clocked(db).Put([]byte(k), []byte(v)) == nil {
							acked[k] = v
						}
					}
					closed := make(chan struct{})
					go func() {
						_ = db.Flush() // the errors are the point; the handles are checked
						_ = db.Close()
						close(closed)
					}()
					select {
					case <-closed:
					case <-time.After(10 * time.Second):
						t.Fatal("Flush and Close still running 10 s after the faults")
					}
					if n := open.Load(); n != 0 {
						t.Errorf("%d file handles left open", n)
					}
					fs.SetHooks(vfs.Hooks{})
					db = mustOpen(t, o)
					for k, v := range acked {
						if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
							t.Fatalf("acknowledged %s after reopen: %.20q, %v", k, got, err)
						}
					}
				})
			}
		}
	}
}
