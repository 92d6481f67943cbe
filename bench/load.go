package main

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/bench/tracefs"
	"repro/internal/client"
)

// phase is the kind of a round.
type phase int

const (
	// closedLoop: every worker issues operations back to back; over the
	// wire, with the pipeline kept full.
	closedLoop phase = iota
	// paced: open loop on a schedule (net_mixed).
	paced
)

func (p phase) String() string { return [...]string{"closed", "paced"}[p] }

// roundData is what one round (or window) measured.
type roundData struct {
	kind   phase
	traced bool
	ops    int
	wall   time.Duration // closed loop: operations plus the drain, if any
	cpu    time.Duration
	// readAmp is the engine's table reads per get over this round alone.
	readAmp float64
	failed  int64
	err     error
	// Raw per-operation latencies in ns, split by kind, sorted. A failed
	// operation is recorded as the maximum value, so it misses every limit.
	puts, gets []uint32
	late       []uint32 // paced: how long after its due time a request was sent
	sendFlush  time.Duration
	batches    int
}

// gather folds the workers' parts into rd and sorts the samples.
func (rd *roundData) gather(parts []roundData, ops [workers][]uint32) {
	for i := range parts {
		p := &parts[i]
		rd.ops += len(ops[i])
		rd.failed += p.failed
		rd.puts = append(rd.puts, p.puts...)
		rd.gets = append(rd.gets, p.gets...)
		rd.late = append(rd.late, p.late...)
		rd.sendFlush += p.sendFlush
		rd.batches += p.batches
	}
	slices.Sort(rd.puts)
	slices.Sort(rd.gets)
	slices.Sort(rd.late)
}

// within counts the operations that finished within limit.
func (rd *roundData) within(limit time.Duration) int64 {
	lim := clampNs(limit)
	count := func(sorted []uint32) int64 {
		i, _ := slices.BinarySearch(sorted, lim+1)
		return int64(i)
	}
	return count(rd.puts) + count(rd.gets)
}

const failedLatency = ^uint32(0)

// loadgen drives one workload against an env.
type loadgen struct {
	cfg  config
	sp   spec
	e    *env
	rec  *tracefs.Recorder
	name spanNames
	// drains has one entry per quiesce of the measured window.
	drains []drainData
}

// drainData is one quiesce: what it found, how long it took and what it
// left behind.
type drainData struct {
	debt     int64 // compaction debt before it
	dur      time.Duration
	resident int64 // bytes on the store's filesystems after it
}

// drain pays every deferred debt and records what that took. The
// resident bytes are read here and nowhere else: only a quiesced store
// has no background task removing files under the reader.
func (g *loadgen) drain() error {
	d := drainData{debt: g.e.st.db.CompactionDebt()}
	start := time.Now()
	if err := g.e.st.quiesce(); err != nil {
		return err
	}
	d.dur = time.Since(start)
	var err error
	d.resident, err = g.e.st.residentBytes()
	g.drains = append(g.drains, d)
	return err
}

// opStreams pre-generates every worker's operations for one round, so
// that generating inputs is never inside a timed region.
func (g *loadgen) opStreams(round, n int) [workers][]uint32 {
	var out [workers][]uint32
	for w := range out {
		rng := rand.New(rand.NewSource(g.cfg.seed*1_000_003 + int64(round)*7919 + int64(w)))
		out[w] = genOps(rng, w, g.cfg.keys, n/workers, g.sp.gets, g.sp.puts, g.sp.getShare)
	}
	return out
}

// round runs one round of the given kind.
func (g *loadgen) round(kind phase, round int, ops [workers][]uint32, traced bool) roundData {
	before := g.e.st.db.Metrics()
	var rd roundData
	if kind == paced {
		rd = g.pacedWindow(round, ops, traced)
	} else {
		rd = g.closedRound(ops, traced)
	}
	met := g.e.st.db.Metrics().Sub(before)
	rd.readAmp = ratio(float64(met.TableDiskReads), float64(met.UserReads))
	return rd
}

// closedRound runs one closed-loop round: every worker issues its
// operations back to back, each waiting for the previous to complete.
func (g *loadgen) closedRound(ops [workers][]uint32, traced bool) roundData {
	rd := roundData{traced: traced}
	g.rec.SetOn(traced)
	parts := make([]roundData, workers)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if g.sp.net {
				g.saturateWorker(w, ops[w], &parts[w])
			} else {
				g.embeddedWorker(w, ops[w], &parts[w])
			}
		}(w)
	}
	wg.Wait()
	// An embedded round is not over until its debt is paid: two workers
	// outrun the background pool, and how much it defers depends on
	// timing, so draining here charges flushes and compactions to the
	// round that caused them and starts every round from the same fully
	// compacted tree. Over the wire the engine keeps up with the load, and
	// a forced compaction per window would only add what was left in L0
	// by chance; there the run drains once, at the end.
	if !g.sp.net {
		rd.err = g.drain()
	}
	rd.wall = time.Since(start)
	rd.cpu = cpuTime() - cpu0
	g.rec.SetOn(false)
	rd.gather(parts, ops)
	return rd
}

// embeddedWorker calls the engine directly. One clock reading per
// operation: the end of one is the start of the next.
func (g *loadgen) embeddedWorker(w int, ops []uint32, out *roundData) {
	db, o := g.e.st.db, g.e.o
	key, val := make([]byte, keyLen), make([]byte, valLen)
	out.puts = make([]uint32, 0, len(ops))
	out.gets = make([]uint32, 0, len(ops))
	t := time.Now()
	for _, op := range ops {
		idx := op &^ opGet
		putKey(key, idx)
		ok := true
		if op&opGet != 0 {
			tok := g.rec.Enter(g.name.get)
			v, err := db.Get(key)
			g.rec.Exit(tok)
			ok = err == nil && o.matches(v, idx, o.ver[idx])
		} else {
			o.next(val, idx)
			tok := g.rec.Enter(g.name.put)
			err := db.Put(key, val)
			g.rec.Exit(tok)
			ok = err == nil
		}
		now := time.Now()
		lat := clampNs(now.Sub(t))
		t = now
		if !ok {
			out.failed++
			lat = failedLatency
		}
		if op&opGet != 0 {
			out.gets = append(out.gets, lat)
		} else {
			out.puts = append(out.puts, lat)
		}
	}
}

// sent is a request in flight on a connection.
type sent struct {
	idx, ver uint32
	get      bool
	from     time.Time // when its latency clock started
}

// send queues one request on c and returns its in-flight record. A GET
// expects the version current when it was sent: the connection reads its
// own writes, and only this worker writes the key.
func (g *loadgen) send(c *client.Conn, op uint32, key, val []byte) (sent, error) {
	o := g.e.o
	s := sent{idx: op &^ opGet, get: op&opGet != 0}
	putKey(key, s.idx)
	if s.get {
		s.ver = o.ver[s.idx]
		return s, c.Send("GET", key)
	}
	o.next(val, s.idx)
	return s, c.Send("SET", key, val)
}

// receive reads the reply to s and checks it.
func (g *loadgen) receive(c *client.Conn, s sent) bool {
	v, err := c.Receive()
	if err != nil {
		return false
	}
	if s.get {
		return !v.Null && g.e.o.matches(v.Str, s.idx, s.ver)
	}
	return bytes.Equal(v.Str, []byte("OK"))
}

func (g *loadgen) record(out *roundData, s sent, ok bool, now time.Time) {
	lat := clampNs(now.Sub(s.from))
	if g.rec.On() {
		name := g.name.put
		if s.get {
			name = g.name.get
		}
		g.rec.Add(name, s.from, now.Sub(s.from))
	}
	if !ok {
		out.failed++
		lat = failedLatency
	}
	if s.get {
		out.gets = append(out.gets, lat)
	} else {
		out.puts = append(out.puts, lat)
	}
}

// saturateWorker keeps one connection's pipeline full: send a batch,
// flush, read the batch's replies. Each request is timed from the start
// of its batch.
func (g *loadgen) saturateWorker(w int, ops []uint32, out *roundData) {
	c := g.e.conns[w]
	key, val := make([]byte, keyLen), make([]byte, valLen)
	out.puts = make([]uint32, 0, len(ops))
	out.gets = make([]uint32, 0, len(ops))
	var inflight [pipeline]sent
	for len(ops) > 0 {
		n := min(pipeline, len(ops))
		start := time.Now()
		broken := false
		for i, op := range ops[:n] {
			s, err := g.send(c, op, key, val)
			s.from = start
			inflight[i] = s
			broken = broken || err != nil
		}
		broken = c.Flush() != nil || broken
		out.sendFlush += time.Since(start)
		out.batches++
		for _, s := range inflight[:n] {
			ok := !broken && g.receive(c, s)
			g.record(out, s, ok, time.Now())
		}
		ops = ops[n:]
	}
}

// pacedWindow runs one open-loop window: every connection sends its
// requests on a seeded exponential schedule, and each request's latency
// runs from the moment it was due, so a stall is charged to every
// request it delayed.
func (g *loadgen) pacedWindow(round int, ops [workers][]uint32, traced bool) roundData {
	rd := roundData{kind: paced, traced: traced}
	g.rec.SetOn(traced)
	parts := make([]roundData, workers)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.cfg.seed*2_000_003 + int64(round)*104729 + int64(w)))
			mean := float64(workers) / g.sp.pacedRate * float64(time.Second)
			due := make([]time.Time, len(ops[w]))
			at := start
			for i := range due {
				at = at.Add(time.Duration(rng.ExpFloat64() * mean))
				due[i] = at
			}
			g.pacedWorker(w, ops[w], due, &parts[w])
		}(w)
	}
	wg.Wait()
	rd.wall = time.Since(start)
	g.rec.SetOn(false)
	rd.gather(parts, ops)
	return rd
}

// pacedWorker owns one connection (a client.Conn is single-goroutine):
// it sends every request that has come due, then reads one reply, and
// sleeps only when nothing is in flight. Waiting for a reply can make
// the next send late; that lateness is inside the request's latency
// (the clock started when it was due) and is reported on its own too.
func (g *loadgen) pacedWorker(w int, ops []uint32, due []time.Time, out *roundData) {
	c := g.e.conns[w]
	key, val := make([]byte, keyLen), make([]byte, valLen)
	out.puts = make([]uint32, 0, len(ops))
	out.gets = make([]uint32, 0, len(ops))
	out.late = make([]uint32, 0, len(ops))
	inflight := make([]sent, 0, 64)
	broken := false
	next := 0
	for next < len(ops) || len(inflight) > 0 {
		now := time.Now()
		sentAny := false
		for next < len(ops) && !due[next].After(now) && len(inflight) < cap(inflight) {
			s, err := g.send(c, ops[next], key, val)
			s.from = due[next]
			broken = broken || err != nil
			out.late = append(out.late, clampNs(now.Sub(due[next])))
			inflight = append(inflight, s)
			next++
			sentAny = true
		}
		if sentAny {
			broken = c.Flush() != nil || broken
		}
		if len(inflight) == 0 {
			sleepUntil(due[next])
			continue
		}
		s := inflight[0]
		inflight = inflight[:copy(inflight, inflight[1:])]
		ok := !broken && g.receive(c, s)
		g.record(out, s, ok, time.Now())
	}
}

// sleepUntil blocks until t with a raw nanosleep at minimal timer slack.
// time.Sleep will not do for an open-loop schedule with sub-millisecond
// gaps: an idle Go scheduler parks in epoll_wait, whose timeout is whole
// milliseconds, so short sleeps come back up to a millisecond late and
// the generator's lateness would swamp the latencies it is there to
// measure.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		// Slack is per thread and goroutines move between threads, so set
		// it on whichever thread is about to sleep.
		syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up just loops
	}
}
