package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// clock is the store-wide commit clock: one monotonically increasing
// sequence of epochs that every write batch and every snapshot draws a
// ticket from. It is the store's single ordering mechanism — per-lsm.DB
// sequence counters are views of it:
//
//   - every ticket (a batch or a snapshot capture) holds one unique
//     epoch;
//   - a ticket holds the commit lock of every shard it touches from
//     before its epoch is drawn until it is done there, so per shard,
//     tickets execute one at a time and in epoch order. Any two
//     tickets that share a shard are therefore ordered the same way
//     everywhere they meet — conflicting cross-shard batches are
//     serializable, and a snapshot ticket spanning all shards captures
//     every shard at the same logical instant.
//
// The clock keeps no record of which epochs are done: a ticket is
// done on a shard when it releases that shard's lock, and whoever must
// see a write waits on the write itself (the server's read-your-writes
// barrier waits on its connection's own groups).
//
// A ticket whose predecessor on a shard is still running blocks on that
// shard's mutex — one waiter is handed the lock when it is released; no
// goroutine is parked on a condition variable and woken to re-check. A
// ticket takes its shards' locks in index order, so tickets cannot
// deadlock, and shards that share no ticket never synchronize beyond one
// atomic add for the epoch.
type clock struct {
	last   atomic.Uint64 // last epoch handed out
	shards []shardLock   // per shard: the commit lock
}

// shardLock is one shard's commit lock on a cache line of its own, so
// taking one shard's lock does not bounce the line another shard's
// writers are spinning on.
type shardLock struct {
	sync.Mutex
	_ [64 - 8]byte
}

// newClock returns a clock over shards commit locks resuming at epoch
// last (the highest sequence any shard recovered; new stores start at 0).
func newClock(shards int, last uint64) *clock {
	c := &clock{shards: make([]shardLock, shards)}
	c.last.Store(last)
	return c
}

// acquire takes the commit lock of every listed shard — shards must be
// in ascending order — and then draws the ticket's epoch. The caller must
// release every listed shard, even on error paths, or everything behind
// it on those shards blocks forever.
//
// It first yields the processor: this is the one point of a commit at
// which the goroutine holds nothing. Writers that never block would
// otherwise run until the runtime preempts them — after 10 ms, wherever
// they are, the commit section included — and on a machine with fewer
// processors than runnable goroutines (two writers, a flush, a compaction
// and the collector on two cores) that is what the tail of the put
// latency was made of: everything else queued for 10 ms behind a writer,
// or parked behind a lock whose holder had been taken off its processor,
// each park costing 50 µs and more to wake from. With nothing else
// runnable the yield costs a fraction of a microsecond. (Yielding only on
// contention, handing over on release and spinning on TryLock were
// measured and do not help: they do not get the preempted holder back on
// a processor.)
func (c *clock) acquire(shards []int) uint64 {
	runtime.Gosched()
	for _, i := range shards {
		c.shards[i].Lock()
	}
	return c.last.Add(1)
}

// release marks the ticket done on shard i, admitting the next one there.
func (c *clock) release(i int) { c.shards[i].Unlock() }
