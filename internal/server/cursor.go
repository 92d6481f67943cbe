package server

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/lsm"
	"repro/internal/resp"
)

// DoneCursor is the cursor id a SCAN reply carries when the scan is
// exhausted and no server-side state remains (redis uses the same
// sentinel).
const DoneCursor = "0"

// isCursorID reports whether b has the shape of a server-issued cursor
// id: "c" followed by decimal digits. The SCAN dispatcher uses it to
// tell the CONT/CLOSE subcommand forms apart from an open scan whose
// start key happens to be the word "cont" or "close".
func isCursorID(b []byte) bool {
	if string(b) == DoneCursor {
		// The done sentinel routes to the subcommand too, so a client
		// that keeps CONTing past exhaustion gets "unknown cursor"
		// instead of a surprise scan from the key "CONT".
		return true
	}
	if len(b) < 2 || b[0] != 'c' {
		return false
	}
	for _, ch := range b[1:] {
		if ch < '0' || ch > '9' {
			return false
		}
	}
	return true
}

// cursor is one server-side scan: a streaming iterator, which pins its
// point-in-time view, positioned after the last page served. SCAN CONT
// resumes it, which is what makes paging repeatable — every page comes
// from the same frozen view, no matter how many writes land in between.
//
// Lifecycle: owned by the connection that opened it (other connections
// cannot touch it), closed by exhaustion, SCAN CLOSE, the idle TTL
// sweeper, or the owning connection's teardown — whichever comes first.
type cursor struct {
	id    string
	owner *conn

	// mu serializes page reads with the sweeper/teardown close. Page
	// reads are bounded (scanPageMax), so the hold is short.
	mu     sync.Mutex
	it     *lsm.Iterator
	closed bool

	lastUsed time.Time // guarded by the registry lock
}

// registry tracks a server's open cursors: lookup by id, per-connection
// caps and teardown, and the idle sweep.
type registry struct {
	cfg Config

	mu      sync.Mutex
	cursors map[string]*cursor
	perConn map[*conn]int
	nextID  uint64
	opened  int64 // lifetime count, for metrics

	stop chan struct{}
	done chan struct{}
}

func newRegistry(cfg Config) *registry {
	r := &registry{
		cfg:     cfg,
		cursors: make(map[string]*cursor),
		perConn: make(map[*conn]int),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.sweep()
	return r
}

// errTooManyCursors is the reply for a connection at its cursor cap.
func (r *registry) errTooManyCursors() error {
	return fmt.Errorf("too many open cursors (max %d per connection); SCAN CLOSE one first", r.cfg.MaxCursorsPerConn)
}

// open registers a new cursor for c, which canOpen has let open one.
// Only c's dispatch goroutine opens cursors for c, and every other path
// only removes them, so c is still under its cap.
func (r *registry) open(c *conn, it *lsm.Iterator) *cursor {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	cur := &cursor{
		id:       "c" + strconv.FormatUint(r.nextID, 10),
		owner:    c,
		it:       it,
		lastUsed: time.Now(),
	}
	r.cursors[cur.id] = cur
	r.perConn[c]++
	r.opened++
	return cur
}

// canOpen reports whether c may open another cursor.
func (r *registry) canOpen(c *conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.perConn[c] < r.cfg.MaxCursorsPerConn
}

// lookup returns c's cursor id, touching its idle clock. Cursors are
// private to the connection that opened them: a wrong owner reads as
// unknown, exactly like an expired id.
func (r *registry) lookup(c *conn, id string) (*cursor, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.cursors[id]
	if !ok || cur.owner != c {
		return nil, false
	}
	cur.lastUsed = time.Now()
	return cur, true
}

// remove unregisters cur and closes its iterator, releasing its view.
func (r *registry) remove(cur *cursor) {
	r.mu.Lock()
	if _, ok := r.cursors[cur.id]; ok {
		delete(r.cursors, cur.id)
		if n := r.perConn[cur.owner] - 1; n > 0 {
			r.perConn[cur.owner] = n
		} else {
			delete(r.perConn, cur.owner)
		}
	}
	r.mu.Unlock()
	cur.mu.Lock()
	defer cur.mu.Unlock()
	if cur.closed {
		return
	}
	cur.closed = true
	cur.it.Close()
}

// removeConn closes every cursor the connection still owns (cursors die
// with their connection).
func (r *registry) removeConn(c *conn) {
	r.mu.Lock()
	var doomed []*cursor
	for _, cur := range r.cursors {
		if cur.owner == c {
			doomed = append(doomed, cur)
		}
	}
	r.mu.Unlock()
	for _, cur := range doomed {
		r.remove(cur)
	}
}

// openCount reports the number of live cursors.
func (r *registry) openCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cursors)
}

// openedTotal reports the lifetime cursor count.
func (r *registry) openedTotal() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opened
}

// sweep closes cursors idle past the TTL, so an abandoned cursor cannot
// pin snapshot files forever even on a connection that stays open.
func (r *registry) sweep() {
	defer close(r.done)
	tick := r.cfg.CursorTTL / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.mu.Lock()
			var doomed []*cursor
			for _, cur := range r.cursors {
				if now.Sub(cur.lastUsed) > r.cfg.CursorTTL {
					doomed = append(doomed, cur)
				}
			}
			r.mu.Unlock()
			for _, cur := range doomed {
				r.remove(cur)
			}
		}
	}
}

// close stops the sweeper and releases every remaining cursor.
func (r *registry) close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
	r.mu.Lock()
	var doomed []*cursor
	for _, cur := range r.cursors {
		doomed = append(doomed, cur)
	}
	r.mu.Unlock()
	for _, cur := range doomed {
		r.remove(cur)
	}
}

// readPage serves up to count key/value pairs from cur, returning the
// reply array [cursor, k1, v1, ...] and whether the cursor survived
// (false: exhausted or errored, already removed from the registry).
func (r *registry) readPage(cur *cursor, count int) (resp.Value, bool) {
	cur.mu.Lock()
	if cur.closed {
		// Lost a race with the TTL sweeper or connection teardown.
		cur.mu.Unlock()
		return resp.Error("ERR unknown cursor"), false
	}
	elems := make([]resp.Value, 1, 2*count+1)
	n := 0
	for n < count && cur.it.Next() {
		// The iterator owns its buffers; copy before queueing.
		k := append([]byte(nil), cur.it.Key()...)
		v := append([]byte(nil), cur.it.Value()...)
		elems = append(elems, resp.Bulk(k), resp.Bulk(v))
		n++
	}
	exhausted := n < count
	var scanErr error
	if exhausted {
		scanErr = cur.it.Err()
	}
	cur.mu.Unlock()
	if scanErr != nil {
		r.remove(cur)
		return resp.Error(fmtErr(scanErr)), false
	}
	if exhausted {
		r.remove(cur)
		elems[0] = resp.Bulk([]byte(DoneCursor))
		return resp.Array(elems...), false
	}
	elems[0] = resp.Bulk([]byte(cur.id))
	return resp.Array(elems...), true
}
