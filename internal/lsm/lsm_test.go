package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bgsched"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// smallOptions returns options scaled down so flushes and compactions
// happen within a few hundred writes.
func smallOptions(fs *vfs.MemFS) Options {
	o := DefaultOptions(fs)
	o.MemtableBytes = 16 << 10
	o.CommitLogBytes = 64 << 10
	o.FlushThresholdBytes = 8 << 10
	o.BaseLevelBytes = 64 << 10
	o.TargetFileBytes = 16 << 10
	o.BlockBytes = 1 << 10
	o.Seed = 42
	return o
}

func triadSmall(fs *vfs.MemFS) Options {
	o := smallOptions(fs)
	o.TriadMem = true
	o.TriadDisk = true
	o.TriadLog = true
	return o
}

// mustOpen opens a store that the test's cleanup closes, after checking
// that the test left no snapshot or iterator open on it: a leaked one pins
// memtable versions, zombie tables and the logs their CL-SSTables index
// until Close. A test may still Close the store itself, to reopen its
// files; the check then has nothing left to see. A test that parks a
// filesystem call registers the cleanup that unparks it after this one
// (cleanups run last-registered first), so a failure while it is parked
// does not leave Close waiting on it.
func mustOpen(t testing.TB, o Options) *DB {
	t.Helper()
	db := mustOpenLeaking(t, o)
	t.Cleanup(func() {
		if n := db.OpenSnapshots(); n != 0 {
			t.Errorf("%d snapshots (or iterators) still open when the test ended", n)
		}
	})
	return db
}

// testPool returns a background pool sized as a one-shard store's, which
// t's cleanup closes after every store opened on it later: cleanups run
// last-registered first.
func testPool(t testing.TB) *bgsched.Pool {
	p := bgsched.NewPool(bgsched.DefaultWorkers(1))
	t.Cleanup(p.Close)
	return p
}

// liveRecord returns db's live memtable record, read under db.mu since the
// flush task pops the stack below it. Its fields change only under a
// commit, a skip or a seal, so a test that is the store's only writer may
// read them.
func liveRecord(db *DB) *memRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.liveLocked()
}

// mustOpenLeaking is mustOpen without the check, for the tests that drop
// snapshots on purpose to watch the finalizer reclaim them. A store opened
// without a Scheduler runs on a pool of its own (testPool).
func mustOpenLeaking(t testing.TB, o Options) *DB {
	t.Helper()
	if o.Scheduler == nil {
		o.Scheduler = testPool(t)
	}
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestBasicPutGetDelete(t *testing.T) {
	for _, mode := range []string{"baseline", "triad"} {
		t.Run(mode, func(t *testing.T) {
			fs := vfs.NewMemFS()
			o := smallOptions(fs)
			if mode == "triad" {
				o = triadSmall(fs)
			}
			db := mustOpen(t, o)

			if err := clocked(db).Put([]byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, err := db.Get([]byte("k1"))
			if err != nil || string(v) != "v1" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			if _, err := db.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("absent Get = %v", err)
			}
			if err := clocked(db).Put([]byte("k1"), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			v, _ = db.Get([]byte("k1"))
			if string(v) != "v2" {
				t.Fatalf("updated Get = %q", v)
			}
			if err := clocked(db).Delete([]byte("k1")); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get([]byte("k1")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted Get = %v", err)
			}
			if err := clocked(db).Put([]byte(""), []byte("v")); err == nil {
				t.Fatal("empty key accepted")
			}
		})
	}
}

func TestFlushAndReadBack(t *testing.T) {
	for _, mode := range []string{"baseline", "triad"} {
		t.Run(mode, func(t *testing.T) {
			fs := vfs.NewMemFS()
			o := smallOptions(fs)
			if mode == "triad" {
				o = triadSmall(fs)
			}
			db := mustOpen(t, o)
			for i := 0; i < 500; i++ {
				if err := clocked(db).Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			files := db.NumLevelFiles()
			total := 0
			for _, n := range files {
				total += n
			}
			if total == 0 {
				t.Fatal("flush produced no files")
			}
			for i := 0; i < 500; i++ {
				v, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)))
				if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
					t.Fatalf("Get key-%04d = %q, %v", i, v, err)
				}
			}
			m := db.Metrics()
			if m.Flushes == 0 {
				t.Fatal("no flush counted")
			}
		})
	}
}

// TestModelBased drives a random workload against a map oracle across all
// four engine configurations, with overwrites, deletes and enough volume
// to force flushes and compactions.
func TestModelBased(t *testing.T) {
	configs := map[string]func(*vfs.MemFS) Options{
		"baseline": smallOptions,
		"mem-only": func(fs *vfs.MemFS) Options { o := smallOptions(fs); o.TriadMem = true; return o },
		"disk-only": func(fs *vfs.MemFS) Options {
			o := smallOptions(fs)
			o.TriadDisk = true
			return o
		},
		"log-only": func(fs *vfs.MemFS) Options { o := smallOptions(fs); o.TriadLog = true; return o },
		"triad":    triadSmall,
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			db := mustOpen(t, mk(fs))
			oracle := map[string]string{}
			rng := rand.New(rand.NewSource(99))
			const keySpace = 400
			for i := 0; i < 8000; i++ {
				k := fmt.Sprintf("key-%04d", rng.Intn(keySpace))
				switch rng.Intn(10) {
				case 0: // delete
					if err := clocked(db).Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(oracle, k)
				default: // put (skewed value sizes)
					v := fmt.Sprintf("v-%d-%s", i, string(make([]byte, rng.Intn(100))))
					if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					oracle[k] = v
				}
				if i%1000 == 999 {
					// Periodic full verification.
					for k, want := range oracle {
						got, err := db.Get([]byte(k))
						if err != nil || string(got) != want {
							t.Fatalf("op %d: Get(%s) = %q, %v; want %q", i, k, got, err, want)
						}
					}
				}
			}
			// Every key, including deleted ones.
			for i := 0; i < keySpace; i++ {
				k := fmt.Sprintf("key-%04d", i)
				got, err := db.Get([]byte(k))
				want, live := oracle[k]
				if live {
					if err != nil || string(got) != want {
						t.Fatalf("final Get(%s) = %q, %v; want %q", k, got, err, want)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("final Get(%s) = %q, %v; want ErrNotFound", k, got, err)
				}
			}
			// Iterator equals oracle.
			it, err := clocked(db).NewIterator(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for it.Next() {
				if oracle[string(it.Key())] != string(it.Value()) {
					t.Fatalf("iterator %s = %q, oracle %q", it.Key(), it.Value(), oracle[string(it.Key())])
				}
				n++
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n != len(oracle) {
				t.Fatalf("iterator has %d entries, oracle %d", n, len(oracle))
			}
		})
	}
}

func TestRecovery(t *testing.T) {
	for _, mode := range []string{"baseline", "triad"} {
		t.Run(mode, func(t *testing.T) {
			fs := vfs.NewMemFS()
			mk := smallOptions
			if mode == "triad" {
				mk = triadSmall
			}
			db := mustOpen(t, mk(fs))
			oracle := map[string]string{}
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("key-%04d", i%300)
				v := fmt.Sprintf("val-%d", i)
				if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			}
			clocked(db).Delete([]byte("key-0000"))
			delete(oracle, "key-0000")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := mustOpen(t, mk(fs))
			for k, want := range oracle {
				got, err := db2.Get([]byte(k))
				if err != nil || string(got) != want {
					t.Fatalf("after recovery Get(%s) = %q, %v; want %q", k, got, err, want)
				}
			}
			if _, err := db2.Get([]byte("key-0000")); !errors.Is(err, ErrNotFound) {
				t.Fatal("deleted key resurrected by recovery")
			}
			// Writes continue after recovery.
			if err := clocked(db2).Put([]byte("post"), []byte("recovery")); err != nil {
				t.Fatal(err)
			}
			v, _ := db2.Get([]byte("post"))
			if string(v) != "recovery" {
				t.Fatal("write after recovery lost")
			}
		})
	}
}

// TestRecoveryWithoutClose simulates a crash: the DB is abandoned (its
// background goroutine is stopped via Close after we null out the work,
// but the *files* are what recovery reads — so we just reopen the same
// MemFS without Close and accept both copies running; MemFS is safe).
func TestRecoveryWithoutClose(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	for i := 0; i < 200; i++ {
		if err := clocked(db).Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, no Flush. The commit log holds everything.
	db2 := mustOpen(t, smallOptions(fs))
	for i := 0; i < 200; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("crash recovery lost k%03d: %v", i, err)
		}
	}
	db.Close() // silence the leaked worker
}

func TestConcurrentReadersWriters(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, triadSmall(fs))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("w%d-key-%03d", w, i%100)
				if err := clocked(db).Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("w%d-key-%03d", r, i%100)
				if _, err := db.Get([]byte(k)); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All final values visible.
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("w%d-key-%03d", w, i)
			if _, err := db.Get([]byte(k)); err != nil {
				t.Fatalf("lost %s: %v", k, err)
			}
		}
	}
}

func TestIteratorRange(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	for i := 0; i < 100; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("%03d", i)), []byte("v"))
	}
	it, err := clocked(db).NewIterator([]byte("010"), []byte("020"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() || string(it.Key()) != "010" {
		t.Fatalf("first = %q", it.Key())
	}
	n := 1
	for it.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("range scan returned %d entries, want 10", n)
	}
}

func TestUseAfterClose(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	clocked(db).Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if err := clocked(db).Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v", err)
	}
	if it, err := clocked(db).NewIterator(nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewIterator after close = %v", err)
	} else if it != nil {
		it.Close()
	}
}

func TestOpenRequiresFS(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without FS succeeded")
	}
}

// TestTracedGetNamesLevel: a traced lookup's sstable_read spans name the
// level of the table they read, a CL-SSTable's log record in L0 and a
// block in L1.
func TestTracedGetNamesLevel(t *testing.T) {
	o := triadSmall(vfs.NewMemFS())
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	for i := 0; i < 200; i++ {
		if err := clocked(db).Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(1, 4)
	reads := func(key string) []string {
		t.Helper()
		tr := tracer.Start("GET", []byte(key), time.Now())
		if _, err := db.GetTraced([]byte(key), tr); err != nil {
			t.Fatal(err)
		}
		var details []string
		for _, sp := range tr.Spans() {
			if sp.Kind == obs.SpanSSTableRead {
				details = append(details, sp.Detail)
			}
		}
		return details
	}
	if got := reads("k0007"); len(got) == 0 || !strings.HasPrefix(got[len(got)-1], "L0 cl-table ") {
		t.Fatalf("L0 lookup spans %q, want the log read tagged L0", got)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if got := reads("k0150"); len(got) == 0 || !strings.HasPrefix(got[0], "L1 table ") {
		t.Fatalf("L1 lookup spans %q, want a block read tagged L1", got)
	}
}
