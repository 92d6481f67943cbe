package bgsched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drain waits for the pool to report an empty queue and no busy workers.
func drain(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := p.Stats()
		if s.QueuedTotal() == 0 && s.Busy == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("pool did not drain: %+v", p.Stats())
}

func TestPriorityOrder(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	o := p.NewOwner()
	defer o.Close()

	var mu sync.Mutex
	var got []Class
	record := func(c Class) func() {
		return func() {
			mu.Lock()
			got = append(got, c)
			mu.Unlock()
		}
	}

	// Occupy the single worker so the queue builds up, then submit in
	// reverse priority order.
	gate := make(chan struct{})
	if !o.Submit(ClassDeep, 0, func() { <-gate }) {
		t.Fatal("submit failed")
	}
	for _, c := range []Class{ClassDeep, ClassL0, ClassFlush} {
		if !o.Submit(c, 0, record(c)) {
			t.Fatalf("submit %v failed", c)
		}
	}
	close(gate)
	drain(t, p)

	want := []Class{ClassFlush, ClassL0, ClassDeep}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("ran %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run order %v, want %v", got, want)
		}
	}
}

func TestShardFairness(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	o := p.NewOwner()
	defer o.Close()

	var mu sync.Mutex
	var got []int
	gate := make(chan struct{})
	o.Submit(ClassDeep, 9, func() { <-gate })
	// Shard 0 floods the queue before shard 1 adds two tasks; fairness
	// means shard 1 is served every other slot, not after the flood.
	for i := 0; i < 4; i++ {
		o.Submit(ClassDeep, 0, func() { mu.Lock(); got = append(got, 0); mu.Unlock() })
	}
	for i := 0; i < 2; i++ {
		o.Submit(ClassDeep, 1, func() { mu.Lock(); got = append(got, 1); mu.Unlock() })
	}
	close(gate)
	drain(t, p)

	mu.Lock()
	defer mu.Unlock()
	want := []int{0, 1, 0, 1, 0, 0}
	if len(got) != len(want) {
		t.Fatalf("ran %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard order %v, want %v (round-robin)", got, want)
		}
	}
}

func TestOwnerClosePurgesQueuedAndWaitsRunning(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	o := p.NewOwner()
	other := p.NewOwner()
	defer other.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	o.Submit(ClassFlush, 0, func() {
		close(started)
		<-release
		finished.Store(true)
	})
	var purgedRan atomic.Bool
	o.Submit(ClassFlush, 0, func() { purgedRan.Store(true) })
	var otherRan atomic.Bool
	other.Submit(ClassFlush, 0, func() { otherRan.Store(true) })

	<-started
	closed := make(chan struct{})
	go func() {
		o.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an owned task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Fatal("Close returned before the running task finished")
	}
	if purgedRan.Load() {
		t.Fatal("queued task ran after owner Close purged it")
	}
	if o.Submit(ClassFlush, 0, func() {}) {
		t.Fatal("Submit succeeded on a closed owner")
	}
	drain(t, p)
	if !otherRan.Load() {
		t.Fatal("another owner's queued task was purged")
	}
}

func TestPoolCloseIdempotentAndStats(t *testing.T) {
	p := NewPool(3)
	if w := p.Workers(); w != 3 {
		t.Fatalf("Workers() = %d, want 3", w)
	}
	o := p.NewOwner()
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		o.Submit(ClassL0, i%2, func() { n.Add(1) })
	}
	drain(t, p)
	if n.Load() != 10 {
		t.Fatalf("ran %d tasks, want 10", n.Load())
	}
	s := p.Stats()
	if s.Completed != 10 {
		t.Fatalf("Completed = %d, want 10", s.Completed)
	}
	o.Close()
	p.Close()
	p.Close() // idempotent
	if o.Submit(ClassFlush, 0, func() {}) {
		t.Fatal("Submit succeeded on a closed pool")
	}
}

func TestDefaultWorkersFloor(t *testing.T) {
	if w := DefaultWorkers(0); w < 2 {
		t.Fatalf("DefaultWorkers(0) = %d, want >= 2", w)
	}
	if w := DefaultWorkers(64); w < 2 {
		t.Fatalf("DefaultWorkers(64) = %d, want >= 2", w)
	}
}
