package server

import (
	"strconv"
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
// A cursor belongs to the connection that opened it and lives in that
// connection's cursors map, guarded by curMu. Only two things touch the
// map: the connection's own goroutine (SCAN, SCAN CONT, SCAN CLOSE and
// serve's teardown) and each cursor's idle timer. A cursor is closed by
// exhaustion, SCAN CLOSE, its idle timer or the connection's teardown —
// whichever first takes it out of the map.
type cursor struct {
	id   string
	it   *lsm.Iterator
	idle *time.Timer // fires expire after CursorTTL; every page re-arms it
	used time.Time   // when the last page was served; guarded by curMu
}

// openCursor serves the first page of a new cursor over it. The page is
// read under curMu, so the idle timer cannot close the cursor mid-page.
func (c *conn) openCursor(it *lsm.Iterator, count int) resp.Value {
	s := c.srv
	cur := &cursor{id: "c" + strconv.FormatInt(s.cursorsTotal.Add(1), 10), it: it}
	s.cursorsOpen.Add(1)
	c.curMu.Lock()
	defer c.curMu.Unlock()
	c.cursors[cur.id] = cur
	cur.idle = time.AfterFunc(s.cfg.CursorTTL, func() { c.expire(cur) })
	return c.readPage(cur, count)
}

// canOpenCursor reports whether the connection is under its cursor cap.
func (c *conn) canOpenCursor() bool {
	c.curMu.Lock()
	defer c.curMu.Unlock()
	return len(c.cursors) < c.srv.cfg.MaxCursorsPerConn
}

// pageCursor serves the next page of the connection's cursor id.
func (c *conn) pageCursor(id string, count int) resp.Value {
	c.curMu.Lock()
	defer c.curMu.Unlock()
	cur, ok := c.cursors[id]
	if !ok {
		return resp.Error("ERR unknown cursor")
	}
	return c.readPage(cur, count)
}

// closeCursor releases the connection's cursor id, reporting whether
// the connection held it.
func (c *conn) closeCursor(id string) bool {
	c.curMu.Lock()
	defer c.curMu.Unlock()
	cur, ok := c.cursors[id]
	if ok {
		c.dropCursor(cur)
	}
	return ok
}

// expire is a cursor's idle timer: it closes the cursor unless a page
// was served within the TTL. A page read may have held curMu while the
// timer fired and then re-armed it; the used check makes that stale
// firing a no-op, and the re-armed one decides.
func (c *conn) expire(cur *cursor) {
	c.curMu.Lock()
	defer c.curMu.Unlock()
	if c.cursors[cur.id] == cur && time.Since(cur.used) >= c.srv.cfg.CursorTTL {
		c.dropCursor(cur)
	}
}

// closeCursors releases every cursor the connection still holds: cursors
// die with their connection, so an abrupt disconnect cannot pin
// snapshots past the TTL. serve calls it once the reader has stopped.
func (c *conn) closeCursors() {
	c.curMu.Lock()
	defer c.curMu.Unlock()
	for _, cur := range c.cursors {
		c.dropCursor(cur)
	}
}

// dropCursor takes cur out of the map, stops its timer and closes its
// iterator, releasing its pinned view. The caller holds curMu.
func (c *conn) dropCursor(cur *cursor) {
	delete(c.cursors, cur.id)
	cur.idle.Stop()
	cur.it.Close()
	c.srv.cursorsOpen.Add(-1)
}

// readPage serves up to count key/value pairs from cur, returning the
// reply array [cursor, k1, v1, ...]. A cursor that survives the page is
// re-armed; one that is exhausted or errored is dropped. The caller
// holds curMu.
func (c *conn) readPage(cur *cursor, count int) resp.Value {
	elems := make([]resp.Value, 1, 2*count+1)
	n := 0
	for n < count && cur.it.Next() {
		// The iterator owns its buffers; copy before queueing.
		k := append([]byte(nil), cur.it.Key()...)
		v := append([]byte(nil), cur.it.Value()...)
		elems = append(elems, resp.Bulk(k), resp.Bulk(v))
		n++
	}
	if n == count {
		cur.used = time.Now()
		cur.idle.Reset(c.srv.cfg.CursorTTL)
		elems[0] = resp.Bulk([]byte(cur.id))
		return resp.Array(elems...)
	}
	err := cur.it.Err()
	c.dropCursor(cur)
	if err != nil {
		return resp.Error(fmtErr(err))
	}
	elems[0] = resp.Bulk([]byte(DoneCursor))
	return resp.Array(elems...)
}
