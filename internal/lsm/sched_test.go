package lsm

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bgsched"
	"repro/internal/compaction"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// schedOptions returns smallOptions wired to a fresh shared pool. The
// caller owns the pool and must close it after the DB.
func schedOptions(fs *vfs.MemFS, workers int) (Options, *bgsched.Pool) {
	o := smallOptions(fs)
	pool := bgsched.NewPool(workers)
	o.Scheduler = pool
	return o, pool
}

// TestSchedulerStallLifecycle: while the pool's only worker is occupied
// the flush queue cannot drain and the writer stalls; the moment the
// pool is released the queued flush runs and the writer unblocks, the
// episode lands on the metrics and in the journal, no write is lost,
// and nothing leaks past Close.
func TestSchedulerStallLifecycle(t *testing.T) {
	fs := vfs.NewMemFS()
	o, pool := schedOptions(fs, 1)
	defer pool.Close()
	o.MemtableBytes = 2 << 10
	o.DisableAutoCompaction = true // isolate the flush-queue stall path
	o.Events = obs.NewJournal(256)

	// Occupy the single worker so every flush the DB schedules queues
	// behind it.
	blocker := pool.NewOwner()
	started := make(chan struct{})
	release := make(chan struct{})
	blocker.Submit(bgsched.ClassDeep, 0, func() { close(started); <-release })
	<-started

	db := mustOpen(t, o)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("key-%04d", i)
			if err := clocked(db).Put([]byte(key), bytes.Repeat([]byte{1}, 150)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// Wait until the writer is wedged: the flush queue is over its
	// cap and cannot drain while the blocker holds the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		db.mu.Lock()
		wedged := len(db.mems) > 1+maxImmutableMemtables
		db.mu.Unlock()
		if wedged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never filled the flush queue; stall condition unreachable")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("writer finished while the pool was blocked (err=%v); backpressure missing", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release) // pool drains: the queued flush runs, the stall must end
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := blocker.Close(); err != nil {
		t.Fatal(err)
	}

	// The episode is visible on both surfaces, with its duration.
	m := db.Metrics()
	if m.WriteStalls == 0 {
		t.Fatal("writer was blocked but WriteStalls is 0")
	}
	if m.WriteStallTime <= 0 {
		t.Fatalf("WriteStalls=%d but WriteStallTime=%s", m.WriteStalls, m.WriteStallTime)
	}
	stallEvents, first := 0, ""
	for _, e := range o.Events.Events(0) { // newest first
		if e.Kind == obs.EventStall {
			stallEvents++
			first = e.Detail
			if e.Dur <= 0 {
				t.Fatalf("stall event with non-positive duration: %v", e)
			}
		}
	}
	if stallEvents == 0 {
		t.Fatalf("%d stalls counted but none journaled", m.WriteStalls)
	}
	// The first stall began with the flush queued behind the blocker, and
	// its entry says so.
	if want := "flush-queue-full; pool 1/1 busy, queued flush 1 l0 0 deep 0"; first != want {
		t.Fatalf("first stall's detail is %q, want %q", first, want)
	}

	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if _, err := db.Get([]byte(key)); err != nil {
			t.Fatalf("lost %s: %v", key, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The DB's owner settled at Close: nothing still queued or running.
	if s := pool.Stats(); s.Busy != 0 || s.QueuedTotal() != 0 {
		t.Fatalf("pool not drained after Close: %+v", s)
	}
}

// TestInjectedPoolOutlivesDB: an engine on a caller's pool flushes on
// it, leaves it running at Close, and a reopen on the same pool recovers
// the data and keeps flushing there.
func TestInjectedPoolOutlivesDB(t *testing.T) {
	fs := vfs.NewMemFS()
	o, pool := schedOptions(fs, 2)
	defer pool.Close()
	db := mustOpen(t, o)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%05d", i)
		if err := clocked(db).Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().Flushes == 0 || pool.Stats().Completed == 0 {
		t.Fatal("no flush ran on the pool")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery reopens on the same pool, which the Close left alone.
	o2 := smallOptions(fs)
	o2.Scheduler = pool
	db2 := mustOpen(t, o2)
	defer db2.Close()
	for _, i := range []int{0, 1234, 2999} {
		k := fmt.Sprintf("key-%05d", i)
		v, err := db2.Get([]byte(k))
		if err != nil {
			t.Fatalf("after reopen, %s: %v", k, err)
		}
		if want := fmt.Sprintf("v%d", i); string(v) != want {
			t.Fatalf("after reopen, %s = %q, want %q", k, v, want)
		}
	}
	done := pool.Stats().Completed
	if err := clocked(db2).Put([]byte("after"), []byte("reopen")); err != nil {
		t.Fatal(err)
	}
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Completed == done {
		t.Fatal("the reopened engine's flush did not run on the injected pool")
	}
}

// TestCloseCancelsQueuedWork: a store on a caller's pool takes its queued
// tasks back at Close (bgsched.Owner.Close). A flush queued behind a busy
// worker must not run once the store has closed, since it would act on a
// closed store; Close flushes the sealed memtable itself.
func TestCloseCancelsQueuedWork(t *testing.T) {
	fs := vfs.NewMemFS()
	o, pool := schedOptions(fs, 1)
	defer pool.Close()
	o.DisableAutoCompaction = true
	blocker := pool.NewOwner()
	defer blocker.Close()
	started, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	blocker.Submit(bgsched.ClassDeep, 0, func() { close(started); <-release })
	<-started

	db := mustOpen(t, o)
	for i := 0; i < 50; i++ {
		if err := clocked(db).Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.Lock()
	err := db.sealLocked("explicit") // queues the flush behind the blocker
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if q := pool.Stats().QueuedTotal(); q != 1 {
		t.Fatalf("%d tasks queued behind the busy worker, want the flush", q)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if q := pool.Stats().QueuedTotal(); q != 0 {
		t.Fatalf("the closed store left %d tasks queued on the pool", q)
	}
	if n := db.Metrics().Flushes; n != 1 {
		t.Fatalf("%d flushes, want Close to have flushed the sealed memtable", n)
	}
}

// TestParkedMergeHoldsOneWorker: an engine whose merge is parked holds one
// worker of the shared pool, however many rounds it asks for meanwhile. A
// flush that lands during the merge asks for another round; that round
// must wait in the engine's compaction slot, not on a worker, so the other
// engine's flush still runs on the pool's second worker.
func TestParkedMergeHoldsOneWorker(t *testing.T) {
	pool := bgsched.NewPool(2)
	t.Cleanup(pool.Close)
	fsA, fsB := vfs.NewMemFS(), vfs.NewMemFS()
	oA := smallOptions(fsA)
	oA.Scheduler = pool
	oA.TriadLog = true // flushes write .clidx files, so the first .sst is a merge's
	oB := smallOptions(fsB)
	oB.Scheduler = pool
	oB.DisableAutoCompaction = true

	parked, release := make(chan struct{}), make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	var once sync.Once
	fsA.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpCreate && strings.HasSuffix(op.Name, ".sst") {
			once.Do(func() { close(parked); <-release })
		}
		return nil
	}})
	a, b := mustOpen(t, oA), mustOpen(t, oB)
	// Cleanups run last-registered first: the merge is let go before the
	// stores close.
	t.Cleanup(unpark)

	fill := func(db *DB, round int) error {
		for i := 0; i < 100; i++ {
			if err := clocked(db).Put([]byte(fmt.Sprintf("key-%03d-%05d", round, i)), []byte("v")); err != nil {
				return err
			}
		}
		return db.Flush()
	}
	merging := func() bool {
		select {
		case <-parked:
			return true
		default:
			return false
		}
	}
	for round := 0; !merging(); round++ {
		if round > 4*compaction.L0CompactionTrigger {
			t.Fatalf("no merge began after %d flushes: %+v", round, a.LevelStats())
		}
		if err := fill(a, round); err != nil {
			t.Fatal(err)
		}
	}
	// A flush lands while the merge is parked and asks for another round;
	// then the other engine flushes.
	within(t, pool, "the parked engine's flush", func() error { return fill(a, 1000) })
	waitPool(t, pool, func(s bgsched.Stats) bool { return s.QueuedTotal() == 0 })
	within(t, pool, "the other engine's flush", func() error { return fill(b, 0) })
	waitPool(t, pool, func(s bgsched.Stats) bool { return s.Busy == 1 && s.QueuedTotal() == 0 })
	unpark()
	if err := a.CompactAll(); err != nil {
		t.Fatal(err)
	}
}

// within runs fn and fails t unless it returns, without error, within 5 s.
func within(t *testing.T, pool *bgsched.Pool, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not run beside the parked merge: pool at %v", what, pool.Stats())
	}
}

// waitPool waits up to 5 s for pool's stats to satisfy ok.
func waitPool(t *testing.T, pool *bgsched.Pool, ok func(bgsched.Stats) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(pool.Stats()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pool stuck at %v", pool.Stats())
		}
	}
}
