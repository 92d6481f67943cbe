// Package server is TRIAD's network front end: a TCP server speaking a
// RESP2-compatible protocol (GET/SET/DEL/MGET/MSET/SCAN/STATS/FLUSH/
// PING/QUIT) over the sharded engine.
//
// Two mechanisms carry the load:
//
//   - Per-connection pipelining. Each connection gets a reader goroutine
//     (parse, execute or enqueue) and a writer goroutine (encode replies
//     in request order), joined by a bounded reply queue. A client may
//     send hundreds of commands before reading the first reply; the
//     server keeps parsing while earlier writes are still committing.
//
//   - Cross-connection group commit. Writes from all connections are
//     coalesced into shared batches that ride the store's commit
//     pipeline: each group's epoch is fixed when the committer seals it,
//     and up to four sealed groups apply concurrently —
//     amortizing the commit-log append and the memtable mutex exactly
//     where TRIAD says the write-path costs live, while the store clock
//     (not the committer) keeps overlapping groups ordered per shard.
//
// Per-connection ordering is preserved: replies are sent in request
// order, and a read observes every earlier write of its own connection
// (before serving GET/MGET/SCAN the reader waits for each write group the
// connection enqueued since its last read to finish committing — reads
// of other connections' in-flight writes are not ordered, exactly as
// with any concurrent store).
//
// A SCAN cursor, which pins a store snapshot across pages, belongs to the
// connection that opened it: it lives in that connection's cursor map,
// and is closed by exhaustion, SCAN CLOSE, its own idle timer or the
// connection's teardown. The server keeps only two cursor counters and
// runs no goroutine for them.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Store is the engine surface the server fronts: its data path, STATS
// and the store's /metrics series, which the store renders itself. The
// store triad.Open returns implements it (a *triad.DB is a *shard.DB), at
// any shard count, so STATS always carries the per-shard table and a
// durable store the STORE metadata validation.
type Store interface {
	// GetTraced is Get with an optional sampled trace attached (nil on
	// the untraced path): disk reads the lookup performs are recorded as
	// sstable_read spans.
	GetTraced(key []byte, tr *obs.Trace) ([]byte, error)
	// Prepare stages a batch in the store's commit pipeline, fixing its
	// epoch; Commit applies it. The group committer uses the staged form
	// so it can pipeline the applies: groups Prepared in order commit in
	// that order on every shard they share.
	Prepare(b *lsm.Batch) (*shard.Commit, error)
	Flush() error
	// NewIterator opens a streaming scan of [start, limit) on a
	// point-in-time view it pins until Close; every SCAN reads through
	// one (cursors hold theirs open across pages, which is what makes
	// paging repeatable).
	NewIterator(start, limit []byte) (*lsm.Iterator, error)
	// Stats is the store's part of STATS; WriteMetrics emits the store's
	// /metrics series. Each reads every shard once.
	Stats() string
	WriteMetrics(p *obs.Prom)
	// Events is the store's background-event journal (flushes,
	// compactions, snapshot GC, stalls), served by EVENTS and
	// /debug/events.
	Events() *obs.Journal
}

var _ Store = (*shard.DB)(nil)

// maxPipeline bounds a connection's outstanding replies; a client that
// pipelines deeper blocks until replies drain (backpressure). It is also
// what bounds a group commit: about connections × maxPipeline write
// commands.
const maxPipeline = 1024

// slowlogSize is the slowlog ring capacity.
const slowlogSize = 128

// scanPageMax caps one SCAN reply page; clients page through the rest
// with SCAN CONT on the returned cursor.
const scanPageMax = 4096

// traceKeep is how many finished traces the server retains.
const traceKeep = 256

// Config tunes the server. The zero value is production-shaped: group
// commit on (leader-based, no artificial delay), full instrumentation,
// tracing off.
type Config struct {
	// CursorTTL closes a SCAN cursor (releasing its pinned snapshot)
	// after this much idle time. Default 60s.
	CursorTTL time.Duration
	// MaxCursorsPerConn caps the cursors one connection may hold open;
	// further SCANs error until one closes. Default 16.
	MaxCursorsPerConn int
	// Logf, when set, receives connection-level diagnostics (protocol
	// errors, accept failures). Default: discard.
	Logf func(format string, args ...any)
	// SlowlogThreshold is the server-side latency above which a command
	// is recorded in the slowlog. Default (any value <= 0) 10ms.
	SlowlogThreshold time.Duration
	// TraceSample is the fraction of commands given an end-to-end trace
	// (spans at decode, coalesce, epoch wait, WAL append, memtable
	// apply, commit, sstable reads, reply flush), served by TRACE and
	// /debug/trace. 0 (the default) disables tracing; unsampled
	// commands pay one random draw and zero allocations.
	TraceSample float64
}

func (c Config) withDefaults() Config {
	if c.CursorTTL <= 0 {
		c.CursorTTL = 60 * time.Second
	}
	if c.MaxCursorsPerConn <= 0 {
		c.MaxCursorsPerConn = 16
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.SlowlogThreshold <= 0 {
		c.SlowlogThreshold = 10 * time.Millisecond
	}
	return c
}

// Server serves the RESP front end over one Store. Create with New,
// start with Serve, stop with Shutdown (graceful) or Close (abrupt). The
// Store's lifecycle belongs to the caller: Shutdown drains the server but
// does not close the engine.
type Server struct {
	store Store
	cfg   Config
	gc    *committer
	ob    *serverObs

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	closing bool
	drained chan struct{} // closed when the first Shutdown finishes
	wg      sync.WaitGroup

	// Counters for the metrics dump.
	totalConns atomic.Int64
	commands   atomic.Int64
	// SCAN cursors open now and ever opened; the latter numbers their
	// ids, so an id is unique per server.
	cursorsOpen  atomic.Int64
	cursorsTotal atomic.Int64
}

// New returns a Server over store.
func New(store Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		store:   store,
		cfg:     cfg,
		ob:      newServerObs(cfg),
		conns:   make(map[*conn]struct{}),
		drained: make(chan struct{}),
	}
	s.gc = newCommitter(store, s.ob)
	return s
}

// Serve accepts connections on ln until Shutdown or Close. It returns
// nil after a clean shutdown, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		// Shutdown won the race (it can run before Serve registers the
		// listener, e.g. a signal at startup); that is a clean stop,
		// not an error.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	var acceptBackoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			// Transient accept failures (ECONNABORTED, fd exhaustion)
			// must not kill the server; back off and retry, as net/http
			// does.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if acceptBackoff == 0 {
					acceptBackoff = 5 * time.Millisecond
				} else if acceptBackoff *= 2; acceptBackoff > time.Second {
					acceptBackoff = time.Second
				}
				s.cfg.Logf("server: accept: %v; retrying in %v", err, acceptBackoff)
				time.Sleep(acceptBackoff)
				continue
			}
			return err
		}
		acceptBackoff = 0
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		c := newConn(s, nc)
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.totalConns.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Addr reports the bound listener address (useful with ":0").
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown gracefully drains the server: stop accepting, unblock every
// connection's reader, let in-flight pipelines finish (their group
// commits included; each connection closes its own SCAN cursors as it
// ends), then stop the committer. Writes that were accepted
// before Shutdown are committed; commands arriving after it get an error
// reply. The ctx bounds the drain; on expiry remaining connections are
// closed abruptly and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closing {
		// A drain is already in flight; wait for it so every Shutdown
		// caller can safely close the store afterwards.
		s.mu.Unlock()
		select {
		case <-s.drained:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.closing = true
	ln := s.ln
	for c := range s.conns {
		c.beginDrain()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	s.gc.close()
	close(s.drained)
	return err
}

// Close shuts down without a drain deadline beyond a short default.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// GroupCommitStats reports how many Apply batches the committer issued
// and how many write operations they carried; ops/batches is the
// realized group size.
func (s *Server) GroupCommitStats() (batches, ops int64) {
	return s.gc.batches.Load(), s.gc.ops.Load()
}

// ConnStats reports current and lifetime connection counts and the
// number of commands served.
func (s *Server) ConnStats() (open int, total, commands int64) {
	s.mu.Lock()
	open = len(s.conns)
	s.mu.Unlock()
	return open, s.totalConns.Load(), s.commands.Load()
}

// CursorStats reports open and lifetime SCAN cursor counts.
func (s *Server) CursorStats() (open int, total int64) {
	return int(s.cursorsOpen.Load()), s.cursorsTotal.Load()
}

// errShuttingDown is the reply given to writes that race a shutdown.
var errShuttingDown = errors.New("server shutting down")

func fmtErr(err error) string {
	return fmt.Sprintf("ERR %v", err)
}
