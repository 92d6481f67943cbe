// Package client is the pipelining RESP client for triadserver, used by
// the tests, the benchmark harness and the examples.
//
// A Conn is one connection with two layers of API. The synchronous
// helpers (Get, Set, Del, MGet, MSet, Scan, ...) issue one command and
// wait for its reply. The pipelining primitives (Send / Flush / Receive)
// let a caller keep many commands in flight on one connection — the
// shape under which the server's group commit does its work:
//
//	for i := range keys {
//		c.Send("SET", keys[i], vals[i])
//	}
//	c.Flush()
//	for range keys {
//		if _, err := c.Receive(); err != nil { ... }
//	}
//
// A Conn is not safe for concurrent use: concurrent callers dial one
// each.
package client

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/resp"
)

// ServerError is an error reply from the server (the RESP "-..." line).
type ServerError string

// Error implements error.
func (e ServerError) Error() string { return "server: " + string(e) }

// Conn is one client connection. Not safe for concurrent use.
type Conn struct {
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer
	// inflight counts sent-but-unreceived commands, to catch misuse.
	inflight int
}

// Dial connects to a triadserver at addr, giving up after 5s.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Conn{nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Send queues one command into the write buffer without flushing.
func (c *Conn) Send(cmd string, args ...[]byte) error {
	full := make([][]byte, 0, len(args)+1)
	full = append(full, []byte(cmd))
	full = append(full, args...)
	if err := c.w.WriteCommand(full...); err != nil {
		return err
	}
	c.inflight++
	return nil
}

// Flush pushes queued commands to the server.
func (c *Conn) Flush() error { return c.w.Flush() }

// Receive reads the next reply in pipeline order. Error replies are
// returned as ServerError; the connection stays usable after them.
func (c *Conn) Receive() (resp.Value, error) {
	v, err := c.r.ReadReply()
	if err != nil {
		return resp.Value{}, err
	}
	if c.inflight > 0 {
		c.inflight--
	}
	if v.IsError() {
		return v, ServerError(v.Str)
	}
	return v, nil
}

// Do issues one command synchronously: Send + Flush + Receive.
func (c *Conn) Do(cmd string, args ...[]byte) (resp.Value, error) {
	if c.inflight != 0 {
		return resp.Value{}, fmt.Errorf("client: Do with %d replies outstanding (finish the pipeline first)", c.inflight)
	}
	if err := c.Send(cmd, args...); err != nil {
		return resp.Value{}, err
	}
	if err := c.Flush(); err != nil {
		return resp.Value{}, err
	}
	return c.Receive()
}

// Get fetches key; found is false when the key is absent.
func (c *Conn) Get(key []byte) (value []byte, found bool, err error) {
	v, err := c.Do("GET", key)
	if err != nil {
		return nil, false, err
	}
	if v.Null {
		return nil, false, nil
	}
	return v.Str, true, nil
}

// Set stores value under key.
func (c *Conn) Set(key, value []byte) error {
	_, err := c.Do("SET", key, value)
	return err
}

// Del removes keys, returning the number of tombstones written.
func (c *Conn) Del(keys ...[]byte) (int64, error) {
	v, err := c.Do("DEL", keys...)
	if err != nil {
		return 0, err
	}
	return v.Int, nil
}

// MGet fetches keys; absent keys yield nil entries.
func (c *Conn) MGet(keys ...[]byte) ([][]byte, error) {
	v, err := c.Do("MGET", keys...)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(v.Elems))
	for i, e := range v.Elems {
		if !e.Null {
			out[i] = e.Str
			if out[i] == nil {
				out[i] = []byte{}
			}
		}
	}
	return out, nil
}

// MSet stores the pairs (key1, val1, key2, val2, ...) atomically within
// each shard.
func (c *Conn) MSet(pairs ...[]byte) error {
	if len(pairs) == 0 || len(pairs)%2 != 0 {
		return errors.New("client: MSet needs key/value pairs")
	}
	_, err := c.Do("MSET", pairs...)
	return err
}

// DoneCursor is the cursor id the server returns when a scan is
// exhausted (no server-side state remains).
const DoneCursor = "0"

// parseScanReply splits a SCAN/SCAN CONT reply [cursor, k1, v1, ...].
func parseScanReply(v resp.Value) (cursor string, keys, vals [][]byte, err error) {
	if len(v.Elems) == 0 || len(v.Elems)%2 != 1 {
		return "", nil, nil, errors.New("client: malformed SCAN reply")
	}
	cursor = string(v.Elems[0].Str)
	for i := 1; i+1 < len(v.Elems); i += 2 {
		keys = append(keys, v.Elems[i].Str)
		vals = append(vals, v.Elems[i+1].Str)
	}
	return cursor, keys, vals, nil
}

// ScanOpen starts a server-side scan of [start, limit) and returns the
// first page (up to count pairs; count <= 0 uses the server's page cap)
// plus the cursor to resume from. A cursor of DoneCursor means the scan
// is complete; any other cursor identifies a snapshot the server keeps
// pinned — page through it with ScanCont and release it with ScanClose
// (or let the server's idle TTL reap it). All pages of one cursor read
// the same frozen snapshot, so paging is repeatable under concurrent
// writes.
func (c *Conn) ScanOpen(start, limit []byte, count int) (cursor string, keys, vals [][]byte, err error) {
	args := [][]byte{emptyOK(start), emptyOK(limit)}
	if count > 0 {
		args = append(args, []byte(fmt.Sprint(count)))
	}
	v, err := c.Do("SCAN", args...)
	if err != nil {
		return "", nil, nil, err
	}
	return parseScanReply(v)
}

// ScanCont fetches the next page of an open cursor. The returned cursor
// is DoneCursor once the scan is exhausted (the server has already
// released it).
func (c *Conn) ScanCont(cursor string, count int) (next string, keys, vals [][]byte, err error) {
	args := [][]byte{[]byte("CONT"), []byte(cursor)}
	if count > 0 {
		args = append(args, []byte(fmt.Sprint(count)))
	}
	v, err := c.Do("SCAN", args...)
	if err != nil {
		return "", nil, nil, err
	}
	return parseScanReply(v)
}

// ScanClose releases an open cursor and its pinned snapshot.
func (c *Conn) ScanClose(cursor string) error {
	_, err := c.Do("SCAN", []byte("CLOSE"), []byte(cursor))
	return err
}

// Scan returns up to count key/value pairs of [start, limit) in key
// order (count <= 0 uses the server's cap), closing the server-side
// cursor if the page did not exhaust the range. Use ScanAll to page
// through a whole range on one pinned snapshot.
func (c *Conn) Scan(start, limit []byte, count int) (keys, vals [][]byte, err error) {
	cursor, keys, vals, err := c.ScanOpen(start, limit, count)
	if err != nil {
		return nil, nil, err
	}
	if cursor != DoneCursor {
		// Best effort: the page is already in hand, and a close failure
		// usually means the server reaped the cursor first — the state
		// Scan wanted anyway. A transport error will surface on the
		// connection's next use.
		_ = c.ScanClose(cursor)
	}
	return keys, vals, nil
}

// ScanAll pages through [start, limit) until exhaustion. The whole scan
// reads one pinned server-side snapshot, so the result is a consistent
// point-in-time view even while writes land concurrently; termination
// is the server's DoneCursor, which also means nothing is left to
// clean up.
func (c *Conn) ScanAll(start, limit []byte) (keys, vals [][]byte, err error) {
	const page = 1024
	cursor, keys, vals, err := c.ScanOpen(start, limit, page)
	if err != nil {
		return nil, nil, err
	}
	for cursor != DoneCursor {
		next, ks, vs, err := c.ScanCont(cursor, page)
		if err != nil {
			// Best-effort release so a failed scan does not pin the
			// server-side snapshot until the TTL, nor burn the
			// connection's cursor budget.
			_ = c.ScanClose(cursor)
			return nil, nil, err
		}
		cursor = next
		keys = append(keys, ks...)
		vals = append(vals, vs...)
	}
	return keys, vals, nil
}

// TraceRecent fetches up to n retained trace summaries (n <= 0: all),
// newest first — one line per trace, as rendered by TRACE RECENT. An
// empty slice means the server is not tracing (-trace-sample 0) or
// nothing has been sampled yet.
func (c *Conn) TraceRecent(n int) ([]string, error) {
	args := [][]byte{[]byte("RECENT")}
	if n > 0 {
		args = append(args, []byte(fmt.Sprint(n)))
	}
	v, err := c.Do("TRACE", args...)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(v.Elems))
	for _, e := range v.Elems {
		out = append(out, string(e.Str))
	}
	return out, nil
}

// TraceGet fetches one trace's full span breakdown by id (the #N number
// in TRACE RECENT and slowlog lines; a leading '#' is accepted). found
// is false when the ring has already overwritten the trace.
func (c *Conn) TraceGet(id uint64) (rendered string, found bool, err error) {
	v, err := c.Do("TRACE", []byte("GET"), []byte(fmt.Sprint(id)))
	if err != nil {
		return "", false, err
	}
	if v.Null {
		return "", false, nil
	}
	return string(v.Str), true, nil
}

// Stats fetches the server's STATS dump.
func (c *Conn) Stats() (string, error) {
	v, err := c.Do("STATS")
	if err != nil {
		return "", err
	}
	return string(v.Str), nil
}

// Ping round-trips a PING.
func (c *Conn) Ping() error {
	v, err := c.Do("PING")
	if err != nil {
		return err
	}
	if string(v.Str) != "PONG" {
		return fmt.Errorf("client: unexpected PING reply %q", v.Str)
	}
	return nil
}

// FlushStore asks the server to flush memtables to disk (the FLUSH
// command; named to avoid colliding with the pipeline Flush).
func (c *Conn) FlushStore() error {
	_, err := c.Do("FLUSH")
	return err
}

// Quit sends QUIT and closes the connection.
func (c *Conn) Quit() error {
	_, err := c.Do("QUIT")
	c.nc.Close()
	return err
}

// emptyOK encodes a possibly-nil bound as an argument (the server reads
// an empty argument as an unbounded side).
func emptyOK(b []byte) []byte {
	if b == nil {
		return []byte{}
	}
	return b
}
