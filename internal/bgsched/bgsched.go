// Package bgsched is the store-wide background I/O scheduler: one
// bounded worker pool shared by every shard's engine.
//
// The pool dispatches by priority class — flushes first (they unblock
// write stalls directly), then L0→L1 compactions (they gate the
// stop-writes trigger), then deeper-level compactions — and within a
// class rotates across the labels tasks are submitted under. In a store
// that rotation is the queue's FIFO order: each engine keeps at most one
// flush task and one compaction task queued (lsm.DB's flushActive and
// compactQueued), under its own label (its shard index), so no class ever
// holds two queued tasks of one label. A task is one flush or one whole
// compaction: the pool's parallelism is across shards, and between
// flushes and the merges they run beside.
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

// Pool is a bounded worker pool with class priorities and per-shard
// round-robin fairness. All methods are safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queues[c][shard] is the FIFO of shard's queued class-c tasks;
	// order[c] rotates the shards with non-empty queues so equal-class
	// work is served round-robin across shards.
	queues [NumClasses]map[int][]task
	order  [NumClasses][]int
	queued [NumClasses]int

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
	for c := range p.queues {
		p.queues[c] = make(map[int][]task)
	}
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
	for c := range p.queues {
		for shard, q := range p.queues[c] {
			for _, t := range q {
				t.owner.wg.Done()
			}
			delete(p.queues[c], shard)
		}
		p.order[c] = nil
		p.queued[c] = 0
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

// popLocked dequeues the next task: the highest-priority non-empty
// class, round-robin across that class's shards. Caller holds p.mu.
func (p *Pool) popLocked() (task, bool) {
	for c := 0; c < NumClasses; c++ {
		if p.queued[c] == 0 {
			continue
		}
		shard := p.order[c][0]
		q := p.queues[c][shard]
		t := q[0]
		if len(q) == 1 {
			delete(p.queues[c], shard)
			p.order[c] = append(p.order[c][:0], p.order[c][1:]...)
		} else {
			p.queues[c][shard] = q[1:]
			// Rotate: the shard goes to the back of its class.
			p.order[c] = append(append(p.order[c][:0], p.order[c][1:]...), shard)
		}
		p.queued[c]--
		return t, true
	}
	return task{}, false
}

// submit enqueues a class-c task for shard on behalf of o. Reports
// false (without enqueueing) when the pool or owner is closed.
func (p *Pool) submit(o *Owner, c Class, shard int, fn func()) bool {
	p.mu.Lock()
	if p.closed || o.closed {
		p.mu.Unlock()
		return false
	}
	if _, ok := p.queues[c][shard]; !ok {
		p.order[c] = append(p.order[c], shard)
	}
	p.queues[c][shard] = append(p.queues[c][shard], task{owner: o, fn: fn})
	p.queued[c]++
	o.wg.Add(1)
	p.cond.Signal()
	p.mu.Unlock()
	return true
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
	s := Stats{Workers: p.workers, Busy: p.busy, Queued: p.queued}
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

// Submit enqueues fn at class c on behalf of this owner. shard labels
// the work for fairness. Reports false when the pool or owner is
// closed; the task will then never run.
func (o *Owner) Submit(c Class, shard int, fn func()) bool {
	return o.pool.submit(o, c, shard, fn)
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
		for shard, q := range p.queues[c] {
			kept := q[:0]
			for _, t := range q {
				if t.owner == o {
					t.owner.wg.Done()
					p.queued[c]--
					continue
				}
				kept = append(kept, t)
			}
			if len(kept) == 0 {
				delete(p.queues[c], shard)
				for i, s := range p.order[c] {
					if s == shard {
						p.order[c] = append(p.order[c][:i], p.order[c][i+1:]...)
						break
					}
				}
			} else {
				p.queues[c][shard] = kept
			}
		}
	}
	p.mu.Unlock()
	o.wg.Wait()
	return nil
}
