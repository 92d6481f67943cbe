package bgsched

import (
	"slices"
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

// recorder returns a maker of tasks that log their name as they run, and
// a reader of that log.
func recorder() (func(name string) func(), func() []string) {
	var mu sync.Mutex
	var got []string
	return func(name string) func() {
			return func() { mu.Lock(); got = append(got, name); mu.Unlock() }
		}, func() []string {
			mu.Lock()
			defer mu.Unlock()
			return slices.Clone(got)
		}
}

// TestFIFOWithinClass: tasks of one class run in the order they were
// submitted, whoever submitted them.
func TestFIFOWithinClass(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	a, b := p.NewOwner(), p.NewOwner()
	defer a.Close()
	defer b.Close()

	gate := make(chan struct{})
	a.Submit(ClassDeep, 0, func() { <-gate })
	task, got := recorder()
	want := []string{"a1", "b1", "a2", "a3", "b2"}
	for _, name := range want {
		o := a
		if name[0] == 'b' {
			o = b
		}
		if !o.Submit(ClassL0, 0, task(name)) {
			t.Fatalf("submit %s failed", name)
		}
	}
	close(gate)
	drain(t, p)
	if !slices.Equal(got(), want) {
		t.Fatalf("run order %v, want %v (submission order)", got(), want)
	}
}

// TestOwnerClosePurgesEveryClass: closing an owner takes its queued tasks
// out of every class, and the other owners' tasks keep their order.
func TestOwnerClosePurgesEveryClass(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	gone, kept := p.NewOwner(), p.NewOwner()
	defer kept.Close()

	blocker := p.NewOwner()
	defer blocker.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	blocker.Submit(ClassFlush, 0, func() { close(started); <-gate })
	<-started
	task, got := recorder()
	for _, c := range []Class{ClassFlush, ClassL0, ClassDeep} {
		kept.Submit(c, 0, task(c.String()+"1"))
		gone.Submit(c, 0, task("gone"))
		kept.Submit(c, 0, task(c.String()+"2"))
	}
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Queued != [NumClasses]int{2, 2, 2} {
		t.Fatalf("queued %v after the purge, want 2 in each class", s.Queued)
	}
	close(gate)
	drain(t, p)
	if want := []string{"flush1", "flush2", "l01", "l02", "deep1", "deep2"}; !slices.Equal(got(), want) {
		t.Fatalf("run order %v, want %v", got(), want)
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
