// Package obs is the runtime's always-on observability substrate:
//
//   - Hist, a striped concurrent latency recorder over the log-linear
//     layout of internal/histogram — O(1) lock-free zero-allocation
//     Record on the hot path, merged into a quantile-capable
//     histogram.H only at scrape time;
//   - Journal, a fixed-size ring of structured background events
//     (flush, compaction, snapshot zombie-GC, write stall) emitted by
//     the engine and queried by the EVENTS command and /debug/events;
//   - SlowLog, a ring of the slowest commands the server has seen;
//   - the Prometheus text-exposition helpers in prom.go.
//
// Journal, Tracer and Trace are nil-safe (a nil one records nothing),
// because nil is what a caller that records nothing holds: the journal
// of an engine a test opens without one (shard.Open hands every shard
// the store's), a server's tracer with tracing off, an unsampled
// command's trace. Hist and SlowLog are not: every one comes from
// NewHist or NewSlowLog.
//
// TestTracerNilSafety holds that contract: it calls every exported
// method of the nil-safe types on a nil receiver. The names handed to
// Prom are held to the Prometheus conventions by internal/server's
// TestMetricsExpositionFormat, which scrapes every series it emits.
package obs

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/histogram"
)

// stripe is one shard of a Hist: a full bucket array of independent
// atomic counters plus sum/min/max. Stripes exist to spread the cache
// traffic of concurrent recorders; any goroutine may record into any
// stripe.
type stripe struct {
	counts [histogram.NumBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds, for exact Prometheus _sum
	min    atomic.Int64 // math.MaxInt64 when empty
	max    atomic.Int64
}

// Hist is a concurrent latency histogram. Record is safe from any
// number of goroutines concurrently with Snapshot and never allocates;
// there is no lock anywhere — each observation is one atomic add into a
// randomly chosen stripe (per-bucket counters), plus sum/min/max
// maintenance.
type Hist struct {
	stripes []stripe
	mask    uint64
}

const unsetMin = int64(^uint64(0) >> 1) // math.MaxInt64

// NewHist returns a recorder striped for the current GOMAXPROCS.
func NewHist() *Hist {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 16 {
		n <<= 1
	}
	h := &Hist{stripes: make([]stripe, n), mask: uint64(n - 1)}
	for i := range h.stripes {
		h.stripes[i].min.Store(unsetMin)
	}
	return h
}

// Record adds one observation. Lock-free, zero allocations.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// rand/v2's global generator reads per-thread state without locking
	// or allocating, which is as close to a per-P stripe pick as the
	// runtime exposes.
	s := &h.stripes[rand.Uint64()&h.mask]
	s.counts[histogram.BucketOf(d)].Add(1)
	s.sum.Add(int64(d))
	for {
		cur := s.min.Load()
		if int64(d) >= cur || s.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if int64(d) <= cur || s.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count reports the number of observations so far.
func (h *Hist) Count() uint64 {
	var n uint64
	for i := range h.stripes {
		s := &h.stripes[i]
		for j := range s.counts {
			n += s.counts[j].Load()
		}
	}
	return n
}

// Sum reports the exact total of all recorded durations.
func (h *Hist) Sum() time.Duration {
	var n int64
	for i := range h.stripes {
		n += h.stripes[i].sum.Load()
	}
	return time.Duration(n)
}

// Snapshot merges every stripe into a point-in-time histogram.H, which
// carries the quantile/mean/merge machinery. Concurrent Records may or
// may not be included; the result is always internally consistent
// (counts observed are counts that happened).
func (h *Hist) Snapshot() histogram.H {
	var counts [histogram.NumBuckets]uint64
	min, max := unsetMin, int64(0)
	for i := range h.stripes {
		s := &h.stripes[i]
		for j := range s.counts {
			counts[j] += s.counts[j].Load()
		}
		if m := s.min.Load(); m < min {
			min = m
		}
		if m := s.max.Load(); m > max {
			max = m
		}
	}
	if min == unsetMin {
		min = 0
	}
	return histogram.FromCounts(counts[:], time.Duration(min), time.Duration(max))
}

// Family enumerates the server's tracked command families.
type Family int

// The tracked command families, in exposition order.
const (
	FamGet Family = iota
	FamSet
	FamDel
	FamMGet
	FamMSet
	FamScan
	NumFamilies
)

// String returns the lower-case family name used as the cmd label.
func (f Family) String() string {
	switch f {
	case FamGet:
		return "get"
	case FamSet:
		return "set"
	case FamDel:
		return "del"
	case FamMGet:
		return "mget"
	case FamMSet:
		return "mset"
	case FamScan:
		return "scan"
	default:
		return "other"
	}
}

// Stage enumerates the commit-pipeline stages the server times. One
// write's server-side life is coalesce → epoch_wait → commit →
// reply_flush; separate histograms per stage are what locate a slow
// p99 (a fat coalesce histogram means the group window, a fat commit
// one means WAL/memtable/stall time).
type Stage int

// The commit-pipeline stages, in pipeline order.
const (
	// StageCoalesce is first-write-in-group → group detached for
	// commit: the batching window, including any wait for a free
	// pipeline slot (that wait is what grows batches under load).
	StageCoalesce Stage = iota
	// StageEpochWait is group detached → commit epoch assigned:
	// Prepare's validation, batch split, and stall absorption.
	StageEpochWait
	// StageCommit is epoch assigned → batch durable: the per-shard
	// epoch-order turn wait plus the WAL append and memtable insert.
	StageCommit
	// StageReplyFlush is one writer-side flush of a connection's
	// pending replies to the socket.
	StageReplyFlush
	NumStages
)

// String returns the snake_case stage name used as the stage label.
func (s Stage) String() string {
	switch s {
	case StageCoalesce:
		return "coalesce"
	case StageEpochWait:
		return "epoch_wait"
	case StageCommit:
		return "commit"
	case StageReplyFlush:
		return "reply_flush"
	default:
		return "other"
	}
}
