package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/base"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/resp"
)

// reply is one slot in a connection's in-order response queue. Either it
// is ready (v), or it waits on a group commit (pb) and resolves to ok or
// to the batch's error.
//
// Tracked replies carry their command's family, start time and first
// key; the writer records the latency when the reply resolves — which
// for group-committed writes is the moment the batch is durable, so the
// measured time is what the client actually waited server-side.
type reply struct {
	v  resp.Value
	pb *pending
	ok resp.Value

	fam     obs.Family
	start   time.Time
	key     []byte
	tracked bool
	// tr is the command's sampled trace (nil almost always). The writer
	// records the reply_flush span into it and finishes it once the
	// reply has left the socket buffer.
	tr *obs.Trace
}

// conn is one client connection: a reader goroutine parses and executes
// commands, a writer goroutine sends replies in request order. The
// bounded replies channel is both the pipeline and the backpressure.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *resp.Reader
	w   *resp.Writer

	replies chan reply
	// writes are the distinct groups the connection enqueued into since
	// its last barrier, less those already done; reads wait on them so a
	// connection observes its own writes.
	writes   []*pending
	quit     bool        // QUIT received: stop reading after replying
	draining atomic.Bool // server shutdown: reader unblocked via read deadline

	// cursors are the connection's open SCAN cursors by id (see cursor).
	curMu   sync.Mutex
	cursors map[string]*cursor
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:     s,
		nc:      nc,
		r:       resp.NewReader(nc),
		w:       resp.NewWriter(nc),
		replies: make(chan reply, maxPipeline),
		cursors: make(map[string]*cursor),
	}
}

// beginDrain unblocks the reader (which may be parked in a blocking
// Read) so a server shutdown can proceed; in-flight replies still drain.
func (c *conn) beginDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now())
}

// serve runs the connection to completion: reader inline, writer in a
// goroutine, joined by the replies queue.
func (c *conn) serve() {
	defer c.nc.Close()
	defer c.closeCursors()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop()
	}()
	c.readLoop()
	close(c.replies)
	<-writerDone
}

func (c *conn) writeLoop() {
	ob := c.srv.ob
	// ftr collects sampled replies written since the last flush: the
	// flush that actually puts their bytes on the wire is the one that
	// ends them, so the reply_flush span and Finish happen there.
	var ftr []*obs.Trace
	for rep := range c.replies {
		v := rep.v
		if rep.pb != nil {
			<-rep.pb.done
			v = rep.ok
			if rep.pb.err != nil {
				v = resp.Error(fmtErr(rep.pb.err))
			}
		}
		c.w.WriteValue(v)
		if rep.tracked {
			ob.observe(rep.fam, rep.key, rep.start, rep.tr)
		}
		if rep.tr != nil {
			ftr = append(ftr, rep.tr)
		}
		// Flush when the pipeline is momentarily empty: one syscall per
		// burst instead of one per reply.
		if len(c.replies) == 0 {
			fs := time.Now()
			err := c.w.Flush()
			fd := time.Since(fs)
			ob.stage[obs.StageReplyFlush].Record(fd)
			for _, tr := range ftr {
				tr.SpanAt(obs.SpanReplyFlush, fs, fd, "")
				ob.tracer.Finish(tr)
			}
			ftr = ftr[:0]
			if err != nil {
				// Client gone: closing the socket unblocks the reader;
				// keep draining the queue so it never blocks either.
				c.nc.Close()
			}
		}
	}
	c.w.Flush()
	// Leftovers (the conn died mid-burst) still reach the ring.
	for _, tr := range ftr {
		ob.tracer.Finish(tr)
	}
}

func (c *conn) readLoop() {
	for !c.quit {
		// parseStart is taken before the blocking read so a sampled
		// trace's decode span covers socket wait + RESP parse — the
		// request's true server-side beginning.
		parseStart := time.Now()
		args, err := c.r.ReadCommand()
		if err != nil {
			var pe *resp.ProtocolError
			switch {
			case errors.As(err, &pe):
				// Speak before hanging up, as redis does.
				c.send(resp.Error("ERR protocol error: " + pe.Reason))
			case errors.Is(err, io.EOF):
			case errors.Is(err, os.ErrDeadlineExceeded) && c.draining.Load():
				// Server shutdown, not a client fault.
			default:
				c.srv.cfg.Logf("server: conn %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		c.srv.commands.Add(1)
		c.dispatch(args, parseStart)
	}
}

// send queues an already-resolved reply.
func (c *conn) send(v resp.Value) { c.replies <- reply{v: v} }

// sendTracked queues a resolved reply whose latency the writer records
// at send time under the command's family (tr: the command's sampled
// trace, nil when unsampled).
func (c *conn) sendTracked(v resp.Value, fam obs.Family, start time.Time, key []byte, tr *obs.Trace) {
	c.replies <- reply{v: v, fam: fam, start: start, key: key, tracked: true, tr: tr}
}

// trace samples a trace for the command, recording the decode span
// (socket wait + parse, parseStart -> now). Nil when unsampled — the
// common case, costing one random draw.
func (c *conn) trace(cmd string, key []byte, parseStart, now time.Time) *obs.Trace {
	tr := c.srv.ob.tracer.Start(cmd, key, parseStart)
	if tr != nil {
		tr.SpanAt(obs.SpanDecode, parseStart, now.Sub(parseStart), "")
	}
	return tr
}

// maxEchoedName bounds how much of an unknown command name its error
// reply echoes.
const maxEchoedName = 64

// dispatch executes one parsed command. Commands are case-insensitive.
func (c *conn) dispatch(args [][]byte, parseStart time.Time) {
	start := time.Now()
	switch cmd := asciiUpper(args[0]); cmd {
	case "PING":
		if len(args) > 1 {
			c.send(resp.Bulk(args[1]))
		} else {
			c.send(resp.Simple("PONG"))
		}
	case "QUIT":
		c.quit = true
		c.send(resp.Simple("OK"))
	case "GET":
		if !c.wantArgs(args, 2, 2, "GET key") {
			return
		}
		tr := c.trace("GET", args[1], parseStart, start)
		c.barrier(tr)
		c.sendTracked(c.get(args[1], tr), obs.FamGet, start, args[1], tr)
	case "MGET":
		if !c.wantArgs(args, 2, -1, "MGET key [key ...]") {
			return
		}
		tr := c.trace("MGET", args[1], parseStart, start)
		c.barrier(tr)
		elems := make([]resp.Value, 0, len(args)-1)
		for _, k := range args[1:] {
			elems = append(elems, c.get(k, tr))
		}
		c.sendTracked(resp.Array(elems...), obs.FamMGet, start, args[1], tr)
	case "SET":
		if !c.wantArgs(args, 3, 3, "SET key value") {
			return
		}
		tr := c.trace("SET", args[1], parseStart, start)
		c.write(args[1:2], []base.Entry{{Key: args[1], Value: args[2], Kind: base.KindSet}}, resp.Simple("OK"), obs.FamSet, start, tr)
	case "DEL":
		if !c.wantArgs(args, 2, -1, "DEL key [key ...]") {
			return
		}
		entries := make([]base.Entry, 0, len(args)-1)
		for _, k := range args[1:] {
			entries = append(entries, base.Entry{Key: k, Kind: base.KindDelete})
		}
		// Replies with the number of tombstones written, not the redis
		// "keys that existed" count — existence would cost a read per
		// key on an LSM.
		tr := c.trace("DEL", args[1], parseStart, start)
		c.write(args[1:], entries, resp.Int(int64(len(entries))), obs.FamDel, start, tr)
	case "MSET":
		if len(args) < 3 || len(args)%2 != 1 {
			c.send(resp.Error("ERR wrong number of arguments: MSET key value [key value ...]"))
			return
		}
		keys := make([][]byte, 0, (len(args)-1)/2)
		entries := make([]base.Entry, 0, (len(args)-1)/2)
		for i := 1; i < len(args); i += 2 {
			keys = append(keys, args[i])
			entries = append(entries, base.Entry{Key: args[i], Value: args[i+1], Kind: base.KindSet})
		}
		tr := c.trace("MSET", args[1], parseStart, start)
		c.write(keys, entries, resp.Simple("OK"), obs.FamMSet, start, tr)
	case "SCAN":
		// Subcommand forms first: SCAN CONT <cursor> [count] resumes a
		// server-side cursor, SCAN CLOSE <cursor> releases one. The
		// subcommand word must be followed by a cursor-shaped token
		// ("c" + digits, the only ids the server hands out), so an open
		// scan whose literal start key is "cont"/"close" still works —
		// it is only shadowed when its limit also looks like a cursor.
		if len(args) >= 3 && isCursorID(args[2]) {
			switch asciiUpper(args[1]) {
			case "CONT":
				if !c.wantArgs(args, 3, 4, "SCAN CONT cursor [count]") {
					return
				}
				c.scanCont(args[2], args[3:], start)
				return
			case "CLOSE":
				if !c.wantArgs(args, 3, 3, "SCAN CLOSE cursor") {
					return
				}
				c.scanClose(args[2])
				return
			}
		}
		if !c.wantArgs(args, 1, 4, "SCAN [start [limit [count]]]") {
			return
		}
		c.barrier(nil)
		c.scan(args[1:], start)
	case "EVENTS":
		if !c.wantArgs(args, 1, 2, "EVENTS [count]") {
			return
		}
		c.events(args[1:])
	case "SLOWLOG":
		if !c.wantArgs(args, 1, 3, "SLOWLOG [GET [count] | LEN | RESET]") {
			return
		}
		c.slowlog(args[1:])
	case "TRACE":
		if !c.wantArgs(args, 2, 3, "TRACE [RECENT [count] | GET id]") {
			return
		}
		c.traceCmd(args[1:])
	case "STATS":
		if !c.wantArgs(args, 1, 1, "STATS") {
			return
		}
		c.barrier(nil)
		c.send(resp.Bulk([]byte(c.srv.statsText())))
	case "FLUSH":
		if !c.wantArgs(args, 1, 1, "FLUSH") {
			return
		}
		c.barrier(nil)
		if err := c.srv.store.Flush(); err != nil {
			c.send(resp.Error(fmtErr(err)))
			return
		}
		c.send(resp.Simple("OK"))
	default:
		// Hostile names reach the reply bounded and escaped: no control
		// byte (CR/LF included) survives into the line.
		if len(cmd) > maxEchoedName {
			cmd = cmd[:maxEchoedName]
		}
		c.send(resp.Error(fmt.Sprintf("ERR unknown command '%s'", obs.EscapeText(cmd))))
	}
}

// wantArgs validates arity ([minA, maxA]; maxA < 0 means unbounded).
func (c *conn) wantArgs(args [][]byte, minA, maxA int, usage string) bool {
	if len(args) < minA || (maxA >= 0 && len(args) > maxA) {
		c.send(resp.Error("ERR wrong number of arguments: " + usage))
		return false
	}
	return true
}

// barrier makes a following read observe every write group the
// connection enqueued (read-your-writes within a connection): it waits
// for each one's commit to finish. Up to commitPipeline groups apply at
// once, so the last group's being done says nothing of the earlier ones.
// The barrier does not need a group's error — the write's own queued
// reply carries it.
func (c *conn) barrier(tr *obs.Trace) {
	if len(c.writes) == 0 {
		return
	}
	var bs time.Time
	if tr != nil {
		bs = time.Now()
	}
	for _, pb := range c.writes {
		<-pb.done
	}
	clear(c.writes)
	c.writes = c.writes[:0]
	tr.Span(obs.SpanBarrier, bs, "read-your-writes wait")
}

// wrote records that the connection enqueued into pb, dropping the
// groups whose commit has finished; the rest are at most the groups its
// unanswered replies wait on.
func (c *conn) wrote(pb *pending) {
	if n := len(c.writes); n > 0 && c.writes[n-1] == pb {
		return
	}
	keep := c.writes[:0]
	for _, w := range c.writes {
		select {
		case <-w.done:
		default:
			keep = append(keep, w)
		}
	}
	clear(c.writes[len(keep):])
	c.writes = append(keep, pb)
}

// get executes a point read and shapes the reply. A sampled read passes
// its trace down so cache-missing table reads surface as sstable_read
// spans.
func (c *conn) get(key []byte, tr *obs.Trace) resp.Value {
	v, err := c.srv.store.GetTraced(key, tr)
	switch {
	case err == nil:
		return resp.Bulk(v)
	case errors.Is(err, lsm.ErrNotFound):
		return resp.NullBulk()
	default:
		return resp.Error(fmtErr(err))
	}
}

// write routes entries through the group committer. Keys are validated
// here, before they can reach the shared batch: one connection's empty
// key must fail that connection's command, not everybody's group.
func (c *conn) write(keys [][]byte, entries []base.Entry, ok resp.Value, fam obs.Family, start time.Time, tr *obs.Trace) {
	for _, k := range keys {
		if len(k) == 0 {
			c.replies <- reply{v: resp.Error("ERR empty key"), tr: tr}
			return
		}
	}
	var key []byte
	if len(keys) > 0 {
		key = keys[0]
	}
	pb, err := c.srv.gc.enqueue(entries, tr)
	if err != nil {
		c.replies <- reply{v: resp.Error(fmtErr(err)), tr: tr}
		return
	}
	c.wrote(pb)
	c.replies <- reply{pb: pb, ok: ok, fam: fam, start: start, key: key, tracked: true, tr: tr}
}

// scanCount parses the optional COUNT argument, capped at the server's
// per-page maximum.
func (c *conn) scanCount(args [][]byte) (int, bool) {
	count := scanPageMax
	if len(args) > 0 {
		n, err := strconv.Atoi(string(args[0]))
		if err != nil || n <= 0 {
			c.send(resp.Error("ERR invalid SCAN count"))
			return 0, false
		}
		if n < count {
			count = n
		}
	}
	return count, true
}

// scan serves SCAN [start [limit [count]]]: it opens a streaming
// iterator, which pins its own point-in-time view, and replies with
// [cursor, k1, v1, ...] — the first page plus the cursor to resume
// from. The cursor is "0" when the page already exhausted the range
// (nothing is retained server-side); otherwise the snapshot stays
// pinned until SCAN CONT drains it, SCAN CLOSE releases it, the idle
// TTL fires, or the connection dies. Because every page reads the same
// pinned snapshot, paging is repeatable: concurrent writes — including
// cross-shard batches — never appear mid-scan.
func (c *conn) scan(args [][]byte, start0 time.Time) {
	var start, limit []byte
	if len(args) > 0 && len(args[0]) > 0 {
		start = args[0]
	}
	if len(args) > 1 && len(args[1]) > 0 {
		limit = args[1]
	}
	count, ok := c.scanCount(args[2:])
	if !ok {
		return
	}
	if !c.canOpenCursor() {
		c.send(resp.Error(fmt.Sprintf("ERR too many open cursors (max %d per connection); SCAN CLOSE one first", c.srv.cfg.MaxCursorsPerConn)))
		return
	}
	it, err := c.srv.store.NewIterator(start, limit)
	if err != nil {
		c.send(resp.Error(fmtErr(err)))
		return
	}
	c.sendTracked(c.openCursor(it, count), obs.FamScan, start0, start, nil)
}

// scanCont serves SCAN CONT <cursor> [count]: the next page of a
// cursor's pinned scan. No read barrier — the whole point is that the
// cursor reads its original snapshot, not the connection's latest
// writes.
func (c *conn) scanCont(id []byte, args [][]byte, start0 time.Time) {
	count, ok := c.scanCount(args)
	if !ok {
		return
	}
	c.sendTracked(c.pageCursor(string(id), count), obs.FamScan, start0, id, nil)
}

// scanClose serves SCAN CLOSE <cursor>: releases the cursor's iterator
// and pinned snapshot.
func (c *conn) scanClose(id []byte) {
	if !c.closeCursor(string(id)) {
		c.send(resp.Error("ERR unknown cursor"))
		return
	}
	c.send(resp.Simple("OK"))
}

// events serves EVENTS [count]: the store's background-event journal,
// newest first, one bulk string per event.
func (c *conn) events(args [][]byte) {
	maxN := 0
	if len(args) > 0 {
		n, err := strconv.Atoi(string(args[0]))
		if err != nil || n <= 0 {
			c.send(resp.Error("ERR invalid EVENTS count"))
			return
		}
		maxN = n
	}
	evs := c.srv.store.Events().Events(maxN)
	elems := make([]resp.Value, 0, len(evs))
	for _, e := range evs {
		elems = append(elems, resp.Bulk([]byte(e.String())))
	}
	c.send(resp.Array(elems...))
}

// slowlog serves SLOWLOG [GET [count] | LEN | RESET] over the server's
// slow-command ring (redis-flavored surface, same semantics).
func (c *conn) slowlog(args [][]byte) {
	log := c.srv.ob.slow
	sub := "GET"
	if len(args) > 0 {
		sub = asciiUpper(args[0])
	}
	switch sub {
	case "GET":
		maxN := 0
		if len(args) > 1 {
			n, err := strconv.Atoi(string(args[1]))
			if err != nil || n <= 0 {
				c.send(resp.Error("ERR invalid SLOWLOG count"))
				return
			}
			maxN = n
		}
		entries := log.Entries(maxN)
		elems := make([]resp.Value, 0, len(entries))
		for _, e := range entries {
			elems = append(elems, resp.Bulk([]byte(e.String())))
		}
		c.send(resp.Array(elems...))
	case "LEN":
		c.send(resp.Int(int64(len(log.Entries(0)))))
	case "RESET":
		log.Reset()
		c.send(resp.Simple("OK"))
	default:
		c.send(resp.Error("ERR unknown SLOWLOG subcommand: SLOWLOG [GET [count] | LEN | RESET]"))
	}
}

// traceCmd serves TRACE RECENT [count] (one summary line per retained
// trace, newest first) and TRACE GET <id> (the full span breakdown for
// one trace; ids appear in RECENT output and in slowlog entries as
// trace=#N). With tracing off (-trace-sample 0) RECENT replies with an
// empty array and GET with a null bulk.
func (c *conn) traceCmd(args [][]byte) {
	tracer := c.srv.ob.tracer
	switch asciiUpper(args[0]) {
	case "RECENT":
		maxN := 0
		if len(args) > 1 {
			n, err := strconv.Atoi(string(args[1]))
			if err != nil || n <= 0 {
				c.send(resp.Error("ERR invalid TRACE RECENT count"))
				return
			}
			maxN = n
		}
		trs := tracer.Recent(maxN)
		elems := make([]resp.Value, 0, len(trs))
		for _, tr := range trs {
			elems = append(elems, resp.Bulk([]byte(tr.String())))
		}
		c.send(resp.Array(elems...))
	case "GET":
		if len(args) != 2 {
			c.send(resp.Error("ERR wrong number of arguments: TRACE GET id"))
			return
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(string(args[1]), "#"), 10, 64)
		if err != nil || id == 0 {
			c.send(resp.Error("ERR invalid trace id"))
			return
		}
		tr := tracer.Get(id)
		if tr == nil {
			c.send(resp.NullBulk())
			return
		}
		c.send(resp.Bulk([]byte(tr.Render())))
	default:
		c.send(resp.Error("ERR unknown TRACE subcommand: TRACE [RECENT [count] | GET id]"))
	}
}

// asciiUpper uppercases a command name without allocating for the common
// already-upper case.
func asciiUpper(b []byte) string {
	for i := 0; i < len(b); i++ {
		if b[i] >= 'a' && b[i] <= 'z' {
			u := make([]byte, len(b))
			for j := range b {
				u[j] = b[j]
				if u[j] >= 'a' && u[j] <= 'z' {
					u[j] -= 'a' - 'A'
				}
			}
			return string(u)
		}
	}
	return string(b)
}
