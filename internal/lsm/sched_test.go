package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bgsched"
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
			if err := db.Put([]byte(key), bytes.Repeat([]byte{1}, 150)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// Wait until the writer is wedged: the immutable queue is over its
	// cap and cannot drain while the blocker holds the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		db.mu.Lock()
		wedged := len(db.imm) > maxImmutableMemtables
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
	stallEvents := 0
	for _, e := range o.Events.Events(0) {
		if e.Kind == obs.EventStall {
			stallEvents++
			if e.Dur <= 0 {
				t.Fatalf("stall event with non-positive duration: %v", e)
			}
		}
	}
	if stallEvents == 0 {
		t.Fatalf("%d stalls counted but none journaled", m.WriteStalls)
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
		if err := db.Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
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
	if err := db2.Put([]byte("after"), []byte("reopen")); err != nil {
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
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v")); err != nil {
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
