// Package bgsched is the store-wide background I/O scheduler: one
// bounded worker pool shared by every shard's engine.
//
// The pool dispatches by priority class — flushes first (they unblock
// write stalls directly), then L0→L1 compactions (they gate the
// stop-writes trigger), then deeper-level compactions — and within a
// class in the order tasks were submitted. Each engine holds at most one
// flush task and one compaction task in the pool, queued or running
// (lsm.DB's flushActive and compactActive), so a class's FIFO never holds
// two tasks of one engine and serves the shards in turn. A task is one
// flush or one whole compaction: the pool's parallelism is across shards,
// and between flushes and the merges they run beside.
//
// Each engine holds an Owner handle; submitting through the owner lets
// Close cancel the engine's queued work and wait out its running work
// without touching other tenants. An unclosed owner or pool leaves its
// goroutines or tasks behind; the tests' goroutine check
// (internal/leakcheck) fails the package when one outlives its tests.
package bgsched

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Class is a task's priority class. Lower values run first.
type Class int

const (
	// ClassFlush is an immutable-memtable flush: the highest priority,
	// because a full flush queue stalls user writes immediately.
	ClassFlush Class = iota
	// ClassL0 is an L0→L1 compaction — the compactions that drain the
	// stop-writes file count.
	ClassL0
	// ClassDeep is a compaction between deeper levels, shaping the tree
	// without any stall on the line.
	ClassDeep

	// NumClasses is the number of priority classes.
	NumClasses = int(ClassDeep) + 1
)

// String names the class for metric labels.
func (c Class) String() string {
	switch c {
	case ClassFlush:
		return "flush"
	case ClassL0:
		return "l0"
	case ClassDeep:
		return "deep"
	default:
		return fmt.Sprintf("class%d", int(c))
	}
}

// DefaultWorkers sizes a pool for a store of the given shard count:
// min(GOMAXPROCS, shards+2), floored at 2 so a lone flush can always
// overlap a running compaction's (simulated or real) I/O waits.
func DefaultWorkers(shards int) int {
	w := runtime.GOMAXPROCS(0)
	if s := shards + 2; s < w {
		w = s
	}
	if w < 2 {
		w = 2
	}
	return w
}

// task is one queued unit of background work.
type task struct {
	owner *Owner
	fn    func()
}

// Pool is a bounded worker pool with class priorities, first in first
// out within a class. All methods are safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queues[c] is the FIFO of queued class-c tasks.
	queues [NumClasses][]task

	workers   int
	busy      int
	closed    bool
	wg        sync.WaitGroup
	completed atomic.Int64
}

// NewPool starts a pool of the given worker count (floored at 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the pool: queued tasks are discarded, running tasks are
// waited out, worker goroutines exit. Owners should be closed first;
// Close exists so the pool itself never leaks goroutines.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c, q := range p.queues {
		for _, t := range q {
			t.owner.wg.Done()
		}
		p.queues[c] = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker runs queued tasks until the pool closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		t, ok := p.popLocked()
		if !ok {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		p.busy++
		p.mu.Unlock()
		t.fn()
		t.owner.wg.Done()
		p.completed.Add(1)
		p.mu.Lock()
		p.busy--
	}
}

// popLocked dequeues the oldest task of the highest-priority non-empty
// class. Caller holds p.mu.
func (p *Pool) popLocked() (task, bool) {
	for c, q := range p.queues {
		if len(q) == 0 {
			continue
		}
		t := q[0]
		q[0] = task{} // the backing array must not keep fn alive
		p.queues[c] = q[1:]
		return t, true
	}
	return task{}, false
}

// Stats is a point-in-time view of the pool.
type Stats struct {
	// Workers is the pool size; Busy is how many are running a task
	// right now.
	Workers, Busy int
	// Queued is the queue depth per class, indexed by Class.
	Queued [NumClasses]int
	// Completed counts tasks run to completion since the pool started.
	Completed int64
}

// String renders s as "pool 2/2 busy, queued flush 1 l0 0 deep 0".
func (s Stats) String() string {
	out := fmt.Sprintf("pool %d/%d busy, queued", s.Busy, s.Workers)
	for c, n := range s.Queued {
		out += fmt.Sprintf(" %s %d", Class(c), n)
	}
	return out
}

// QueuedTotal sums the per-class queue depths.
func (s Stats) QueuedTotal() int {
	n := 0
	for _, q := range s.Queued {
		n += q
	}
	return n
}

// Stats captures the current pool state.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := Stats{Workers: p.workers, Busy: p.busy}
	for c, q := range p.queues {
		s.Queued[c] = len(q)
	}
	p.mu.Unlock()
	s.Completed = p.completed.Load()
	return s
}

// Owner is one tenant's handle on the pool: the unit of cancellation.
// Every engine submits through its own owner; closing the owner purges
// the engine's queued tasks and waits for its running ones, leaving
// other tenants untouched.
type Owner struct {
	pool   *Pool
	wg     sync.WaitGroup // queued + running tasks
	closed bool           // guarded by pool.mu
}

// NewOwner registers a tenant. The caller must Close it before the
// engine's resources (tables, logs) are torn down.
func (p *Pool) NewOwner() *Owner { return &Owner{pool: p} }

// Submit enqueues fn at class c on behalf of this owner, behind the
// class's queued tasks. The int argument is unused. Reports false when
// the pool or owner is closed; the task will then never run.
func (o *Owner) Submit(c Class, _ int, fn func()) bool {
	p := o.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || o.closed {
		return false
	}
	p.queues[c] = append(p.queues[c], task{owner: o, fn: fn})
	o.wg.Add(1)
	p.cond.Signal()
	return true
}

// Close cancels the owner's queued tasks (they never run) and waits for
// its in-flight tasks to finish. Safe to call twice; Submit after Close
// reports false.
func (o *Owner) Close() error {
	p := o.pool
	p.mu.Lock()
	if o.closed {
		p.mu.Unlock()
		o.wg.Wait()
		return nil
	}
	o.closed = true
	for c := range p.queues {
		p.queues[c] = slices.DeleteFunc(p.queues[c], func(t task) bool {
			if t.owner == o {
				o.wg.Done()
				return true
			}
			return false
		})
	}
	p.mu.Unlock()
	o.wg.Wait()
	return nil
}
