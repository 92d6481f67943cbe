package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/base"
	"repro/internal/lsm"
	"repro/internal/obs"
)

// tracedOp is one sampled command riding a write group: its trace and
// the moment it joined the group, so the coalesce span charged to the
// trace covers that op's own wait, not the group leader's.
type tracedOp struct {
	tr  *obs.Trace
	enq time.Time
}

// pending is one group of writes awaiting a shared commit. Connections
// hold a reference per enqueued command; done closes once the commit
// finished (or the prepare failed), with err carrying the outcome to
// every waiter.
type pending struct {
	batch  lsm.Batch
	done   chan struct{}
	err    error
	start  time.Time
	traced []tracedOp // sampled ops in the group (usually empty)
}

// commitPipeline is how many prepared write groups may be applying at
// once. Their epochs are fixed at Prepare, and the store clock commits
// them in epoch order on every shard they share, so the depth bounds
// memory and goroutines, never ordering.
const commitPipeline = 4

// committer coalesces writes from every connection into shard-split
// batches and feeds them to the store's commit pipeline. Batching is
// leader-based: the loop seals the open group the moment a pipeline slot
// is free, and the ops that arrive while commits are in flight form the
// next group — batches grow with load and a quiet server adds no latency.
// A group is bounded by what can be outstanding, not by a cap: every
// write command in it holds an unanswered reply, and a connection queues
// at most maxPipeline of those (plus the one its writer waits on), so a
// group carries about connections × maxPipeline write commands — an
// MSET counting once, with all its keys.
//
// The committer is a stage of the store's commit pipeline, not an
// ordering layer of its own: the loop Prepares each detached group —
// fixing its store-clock epoch in detach order — and then runs the
// Commit on a pooled goroutine, up to commitPipeline groups in flight
// at once. Epoch order, enforced per shard by the store clock, is what
// keeps overlapping commits strictly ordered.
type committer struct {
	store Store
	ob    *serverObs

	mu     sync.Mutex
	cur    *pending
	closed bool

	kick     chan struct{} // a new group opened
	quit     chan struct{}
	wg       sync.WaitGroup
	inflight chan struct{}  // semaphore: groups between Prepare and Commit-done
	cwg      sync.WaitGroup // in-flight Commit goroutines

	batches atomic.Int64
	ops     atomic.Int64
}

func newCommitter(store Store, ob *serverObs) *committer {
	c := &committer{
		store:    store,
		ob:       ob,
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		inflight: make(chan struct{}, commitPipeline),
	}
	c.wg.Add(1)
	go c.loop()
	return c
}

// enqueue adds entries to the open group (opening one if needed) and
// returns the group to wait on. The entries must be caller-owned copies;
// they are handed to the batch without further copying. A sampled
// command passes its trace; the group carries it through the pipeline
// so the coalesce/epoch_wait/commit spans land on the right request.
func (c *committer) enqueue(entries []base.Entry, tr *obs.Trace) (*pending, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errShuttingDown
	}
	if c.cur == nil {
		c.cur = &pending{done: make(chan struct{}), start: time.Now()}
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	pb := c.cur
	for _, e := range entries {
		pb.batch.PutEntry(e)
	}
	if tr != nil {
		pb.traced = append(pb.traced, tracedOp{tr: tr, enq: time.Now()})
	}
	c.mu.Unlock()
	return pb, nil
}

func (c *committer) loop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.quit:
			c.commit()
			return
		case <-c.kick:
			c.commit()
		}
	}
}

// commit waits for a pipeline slot, then detaches the open group,
// Prepares it (fixing its epoch, its position in the commit order), and
// hands the Commit to a pipelined goroutine. Acquiring the slot before
// detaching is what makes batching leader-based: while every slot is
// busy, the open group keeps absorbing arrivals, so batches grow with
// load. On quit there may be no open group to detach.
func (c *committer) commit() {
	c.inflight <- struct{}{}
	c.mu.Lock()
	pb := c.cur
	c.cur = nil
	c.mu.Unlock()
	if pb == nil {
		<-c.inflight
		return
	}
	// Stage timing: coalesce is group open -> detach (the pipeline-slot
	// wait the group grew during), epoch_wait is detach -> ticket
	// assigned, commit is ticket -> durable.
	detached := time.Now()
	c.ob.stage[obs.StageCoalesce].Record(detached.Sub(pb.start))
	for _, to := range pb.traced {
		to.tr.SpanAt(obs.SpanCoalesce, to.enq, detached.Sub(to.enq),
			fmt.Sprintf("group of %d ops", pb.batch.Len()))
	}
	cm, err := c.store.Prepare(&pb.batch)
	if err != nil {
		pb.err = err
		close(pb.done)
		<-c.inflight
		return
	}
	prepared := time.Now()
	c.ob.stage[obs.StageEpochWait].Record(prepared.Sub(detached))
	var trs obs.Traces
	if len(pb.traced) > 0 {
		trs = make(obs.Traces, 0, len(pb.traced))
		for _, to := range pb.traced {
			trs = append(trs, to.tr)
		}
		trs.SpanAt(obs.SpanEpochWait, detached, prepared.Sub(detached),
			fmt.Sprintf("epoch %d", cm.Epoch()))
		// The engine records wal_append/memtable_apply into every trace
		// riding the group while the sub-batches commit.
		cm.Trace(trs)
	}
	// Bounded pipelining: the loop goes back to coalescing while up to
	// commitPipeline prepared groups apply concurrently. Their epochs
	// are already ordered, so the store commits them in sealing order on
	// every shard they share.
	c.cwg.Add(1)
	go func() {
		defer c.cwg.Done()
		pb.err = cm.Commit()
		c.ob.stage[obs.StageCommit].Record(time.Since(prepared))
		if len(trs) > 0 {
			trs.SpanAt(obs.SpanCommit, prepared, time.Since(prepared), "")
		}
		c.batches.Add(1)
		c.ops.Add(int64(pb.batch.Len()))
		close(pb.done)
		<-c.inflight
	}()
}

// close stops accepting writes, commits any open group, and waits for
// the loop and every in-flight commit to finish. Safe to call once;
// callers (Server.Shutdown) ensure connections have drained first so no
// enqueue races the close.
func (c *committer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
	c.cwg.Wait()
}
