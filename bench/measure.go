package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/bench/tracefs"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sstable"
)

// counters is every cumulative count the benchmark reads, taken at the
// two ends of the measured window (timed rounds plus quiesce).
type counters struct {
	fs          tracefs.Stats
	met         metrics.Snapshot
	io          obs.LedgerSnapshot
	cache       sstable.CacheStats
	tasks       int64
	shardWrites []int64
	gcCycles    uint32
	gcPause     time.Duration
}

func readCounters(s *store) counters {
	c := counters{
		fs:    s.counters.Snapshot(),
		met:   s.db.Metrics(),
		io:    s.db.IOBySource(),
		cache: s.db.BlockCacheStats(),
	}
	if p := s.db.Scheduler(); p != nil {
		c.tasks = p.Stats().Completed
	}
	for _, st := range s.db.ShardStats() {
		c.shardWrites = append(c.shardWrites, st.Writes)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcCycles, c.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)
	return c
}

// cpuTime is the process's user+system CPU time so far. Unlike wall
// time it also sees work that moved onto background threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pacer measures how fast the host's memory system is right now. On this
// box an arithmetic loop repeats within 3 %, but anything that misses the
// processor's caches — which is most of what a store does — runs up to
// 40 % slower for minutes at a time, with CPU steal at zero: the memory
// system is shared. A lap is a fixed number of independent lookups in a
// Go map far larger than the caches; none of it is the store's code, so a
// change to the store cannot move it.
type pacer struct {
	m    map[uint64]uint64
	sink uint64
}

const (
	pacerKeys    = 1 << 20
	pacerLookups = 1_500_000
	// nominalLap is a lap on this box when it is quiet.
	nominalLap = 85 * time.Millisecond
)

func newPacer() *pacer {
	p := &pacer{m: make(map[uint64]uint64, pacerKeys)}
	for i := uint64(0); i < pacerKeys; i++ {
		p.m[i*2654435761] = i
	}
	return p
}

func (p *pacer) lap() time.Duration {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < pacerLookups; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.sink += p.m[(x>>44)*2654435761]
	}
	return time.Since(start)
}

// atNominalPace scales a set-up time measured while a lap took lap to
// what it would have been at the nominal lap. Set-up time here follows
// the lap time to the power 0.5 (measured: exponent 0.45–0.53 over three
// ten-minute stretches, r = 0.8–0.96 between 25-second medians; a set-up
// is part arithmetic, so it slows less than the lap does). Scaling takes
// the widest difference between the medians of ten consecutive runs from
// 19 % to 6 %.
func atNominalPace(d, lap time.Duration) float64 {
	return d.Seconds() * math.Sqrt(nominalLap.Seconds()/lap.Seconds())
}

// sampler polls the gauges that have no cumulative counter: background
// pool occupancy and queue depth, and the L0 file count.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	n          int
	busy       float64 // sum of busy/workers
	queueMax   int
	l0FilesSum int
}

func startSampler(s *store) *sampler {
	sm := &sampler{stop: make(chan struct{})}
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
			sm.n++
			if p := s.db.Scheduler(); p != nil {
				st := p.Stats()
				sm.busy += float64(st.Busy) / float64(st.Workers)
				if q := st.QueuedTotal(); q > sm.queueMax {
					sm.queueMax = q
				}
			}
			sm.l0FilesSum += s.db.NumLevelFiles()[0]
		}
	}()
	return sm
}

// finish stops the sampler and waits for it; its fields are then safe to
// read.
func (sm *sampler) finish() {
	close(sm.stop)
	sm.wg.Wait()
	if sm.n == 0 {
		sm.n = 1
	}
}

// median of xs (mean of the middle two for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the exact q-quantile (nearest rank) of sorted raw
// samples in nanoseconds, as microseconds; 0 when empty.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// clampNs stores a duration as uint32 nanoseconds (saturating at ~4.29 s,
// far beyond any latency limit here).
func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
