// Package shard implements a sharded engine: a keyspace router over N
// independent lsm.DB instances, each with its own commit log, memtable,
// levels and background flush/compaction workers.
//
// A single lsm.DB serializes every write behind one commit lock and one
// WAL; under many concurrent writers that lock — not the device — is
// the bottleneck. Hash-partitioning the keyspace multiplies the write
// paths: N shards give N independent locks, WALs and background
// pipelines, while TRIAD's three techniques (hot/cold flush separation,
// HLL-gated L0 compaction, CL-SSTables) compose per shard unchanged.
//
// Keys route to shards by an FNV-1a hash, which balances any keyspace but
// scatters contiguous ranges over every shard. The shard count and the
// routing's name are persisted in a checksummed STORE record on every
// shard's filesystem; Open validates it on reopen and fails fast on a
// mismatch — or on a record naming another partitioner, as stores of
// older builds may — instead of silently misrouting keys.
//
// shard.DB exposes the same surface as lsm.DB: point operations route to
// the owning shard, Apply splits a batch into per-shard sub-batches
// applied concurrently, NewIterator is one lsm.Iterator over every
// shard's sources on one store snapshot, and Flush/CompactAll/Close fan
// out to every shard and drain them. The store's commit clock numbers
// every write and every snapshot: the shards' engines take their
// sequences from it and number nothing themselves.
//
// Two lifetime invariants here are checked at runtime by the tests (see
// README "Leak checks"): every *Commit ticket minted by Prepare must
// reach Commit (an unsettled ticket holds its shards' commit locks
// forever), and every Snapshot and iterator must be closed (snapshots
// pin the memtable versions they read and zombie sstables until
// released).
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/bgsched"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// Options configures Open.
type Options struct {
	// Shards is the number of independent engine instances; values < 1
	// mean 1. The count must be stable across opens of the same store.
	Shards int
	// Engine is the per-shard engine configuration template. The store
	// supplies five of its fields, overwriting what the template holds:
	// FS (NewFS(i)), Scheduler (the store's one background pool),
	// BlockCache (the store's one block cache), Events (the store's one
	// event journal) and EventShard (i). Engine.Seed is decorrelated per
	// shard. Budgets in the template (memtable, commit log, block cache,
	// ...) apply to each shard individually; use DivideBudgets to split
	// one store-wide budget evenly.
	//
	// Engine.BlockCacheBytes is the per-shard share, but the store pools
	// the shares: Open builds ONE store-wide block cache of
	// Engine.BlockCacheBytes x Shards and hands every shard a tenant
	// handle on it, so the aggregate memory matches a per-shard design
	// while the bytes follow whichever shards are hot.
	Engine lsm.Options
	// NewFS returns shard i's filesystem; required. Every shard needs a
	// namespace of its own — MemFS and DirFS are ready-made factories.
	NewFS func(i int) (vfs.FS, error)
	// BackgroundWorkers sizes the store-wide background worker pool
	// shared by every shard's flushes and compactions (by priority class,
	// first in first out within one; see internal/bgsched), each one
	// task. 0 means the default min(GOMAXPROCS, shards+2), floored at 2; a
	// negative value is an error.
	BackgroundWorkers int
}

// MemFS returns a NewFS factory handing every shard a fresh in-memory
// filesystem (ephemeral stores, tests, benchmarks).
func MemFS() func(int) (vfs.FS, error) {
	return func(int) (vfs.FS, error) { return vfs.NewMemFS(), nil }
}

// DirFS returns a NewFS factory rooting shard i at dir/shard-NNN
// (durable stores). It refuses a dir that itself holds a STORE record: the
// root of a store opened without shard directories, whose keys shards
// under it would not see.
func DirFS(dir string) func(int) (vfs.FS, error) {
	return func(i int) (vfs.FS, error) {
		m, ok, err := readStoreMeta(&vfs.OSFS{Dir: dir})
		if err != nil {
			return nil, err
		}
		if ok {
			return nil, fmt.Errorf("store at %s was created with %d shard(s) at its root (found %s); open it with the original shard count", dir, m.Shards, storeMetaName)
		}
		return vfs.NewOSFS(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
	}
}

// DivideBudgets returns o with its sizing knobs divided by n, so that N
// shards configured from the result consume roughly the same aggregate
// memory and produce the same aggregate level sizes as one instance of o
// — the configuration under which a shard-count comparison is fair.
// Floors keep tiny divisions functional.
func DivideBudgets(o lsm.Options, n int) lsm.Options {
	if n <= 1 {
		return o
	}
	div := func(v int64, floor int64) int64 {
		if v <= 0 {
			return v // keep "use default" sentinels as-is
		}
		if out := v / int64(n); out > floor {
			return out
		}
		return floor
	}
	o.MemtableBytes = div(o.MemtableBytes, 32<<10)
	o.CommitLogBytes = div(o.CommitLogBytes, 128<<10)
	o.FlushThresholdBytes = div(o.FlushThresholdBytes, 16<<10)
	o.BaseLevelBytes = div(o.BaseLevelBytes, 256<<10)
	o.TargetFileBytes = div(o.TargetFileBytes, 64<<10)
	o.BlockCacheBytes = div(o.BlockCacheBytes, 0)
	return o
}

// DB is a sharded key-value store. All methods are safe for concurrent
// use. Writes to different shards proceed in parallel; writes touching
// the same shard commit in store-clock epoch order.
type DB struct {
	shards []*lsm.DB

	// clk is the store-wide commit clock: every write (single- or
	// cross-shard) and every snapshot holds one epoch ticket, and per
	// shard, tickets execute in epoch order. That single total order is
	// what makes concurrent conflicting cross-shard batches serializable
	// and lets NewSnapshot pin an epoch, holding each shard only until it
	// is captured.
	clk *clock
	// idxAll is the precomputed all-shards index list snapshots ticket.
	idxAll []int

	// events receives every shard's background events (flush, compaction,
	// snapshot GC, stall), labeled by shard; applyLat times each batch's
	// commit execution.
	events   *obs.Journal
	applyLat *obs.Hist

	// cache is the store-wide block cache every shard draws from (nil
	// when caching is disabled).
	cache *sstable.Cache

	// sched is the store-wide background worker pool, closed after the
	// shards.
	sched *bgsched.Pool
}

// Open opens (creating or recovering) every shard. Recovery is
// per-shard: each instance replays its own manifest and commit log. The
// store-wide configuration is checked first: on create, a STORE metadata
// record (shard count + partitioner) is written to every shard's
// filesystem; on reopen, the records are validated against Options and
// a mismatched shard count, or a partitioner other than FNV, is an error
// — the alternative is serving reads that silently miss the keys routed
// elsewhere.
func Open(o Options) (*DB, error) {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.NewFS == nil {
		return nil, errors.New("shard: Options.NewFS is required")
	}
	if o.BackgroundWorkers < 0 {
		return nil, fmt.Errorf("shard: Options.BackgroundWorkers is %d; want 0 (default size) or a positive worker count", o.BackgroundWorkers)
	}
	fses := make([]vfs.FS, o.Shards)
	for i := range fses {
		fs, err := o.NewFS(i)
		if err == nil && fs == nil {
			err = errors.New("nil filesystem")
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		fses[i] = fs
	}
	if err := checkStoreMeta(fses); err != nil {
		return nil, err
	}
	db := &DB{
		shards:   make([]*lsm.DB, 0, o.Shards),
		events:   obs.NewJournal(0),
		applyLat: obs.NewHist(),
	}
	// Pool the per-shard cache shares into one store-wide cache (same
	// aggregate bytes, no pre-split).
	db.cache = sstable.NewCache(o.Engine.BlockCacheBytes * int64(o.Shards))
	// One store-wide background pool arbitrates every shard's flushes
	// and compactions (the same centralization the block cache has).
	w := o.BackgroundWorkers
	if w == 0 {
		w = bgsched.DefaultWorkers(o.Shards)
	}
	db.sched = bgsched.NewPool(w)
	for i, fs := range fses {
		eo := o.Engine
		eo.FS = fs
		eo.Scheduler = db.sched
		eo.Events = db.events
		eo.EventShard = i
		eo.BlockCache = db.cache
		// Decorrelate the per-shard skiplist seeds so shards do not
		// produce identical tower heights in lockstep.
		eo.Seed = o.Engine.Seed + int64(i)*7919
		s, err := lsm.Open(eo)
		if err != nil {
			db.closeAll()
			return nil, fmt.Errorf("shard %d: open: %w", i, err)
		}
		db.shards = append(db.shards, s)
	}
	// The store clock resumes from the highest sequence any shard has
	// committed, so epochs stay unique across reopens.
	var last uint64
	for _, s := range db.shards {
		if ls := s.LastSeq(); ls > last {
			last = ls
		}
	}
	db.clk = newClock(len(db.shards), last)
	db.idxAll = make([]int, len(db.shards))
	for i := range db.idxAll {
		db.idxAll[i] = i
	}
	return db, nil
}

// checkStoreMeta validates the STORE records on the shard filesystems
// against the shard count, and writes records where absent (store
// creation, or a store predating the metadata format — the one case that
// cannot be validated). A record naming a partitioner other than FNV is
// refused: this build cannot route that store's keys. So is a filesystem
// with no record that holds a shard-000/: the root of a sharded store
// (DirFS) opened as a shard, where every key would read as missing.
func checkStoreMeta(fses []vfs.FS) error {
	n := len(fses)
	recorded := make([]bool, n)
	var ref *storeMeta
	for i, fs := range fses {
		m, ok, err := readStoreMeta(fs)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if !ok {
			if fs.Exists("shard-000") {
				return fmt.Errorf("shard %d: store was created sharded (found shard-000/); open it with the original shard count", i)
			}
			continue
		}
		if m.Partitioner != fnvName {
			return fmt.Errorf("shard %d: store was created with partitioner %q, which this build cannot route (it routes by %q only)", i, m.Partitioner, fnvName)
		}
		if m.Shard != i {
			return fmt.Errorf("shard: shard %d's filesystem holds shard %d's metadata — shard directories shuffled or miswired", i, m.Shard)
		}
		recorded[i] = true
		if ref == nil {
			ref = &m
		} else if m.Shards != ref.Shards {
			return fmt.Errorf("shard: shards disagree on store metadata (shard %d: %d shards; shard %d: %d shards)",
				ref.Shard, ref.Shards, i, m.Shards)
		}
	}
	if ref != nil && ref.Shards != n {
		return fmt.Errorf("shard: store was created with %d shards; reopening with %d shards would misroute keys — pass the original shard count",
			ref.Shards, n)
	}
	for i, fs := range fses {
		if recorded[i] {
			continue
		}
		if err := writeStoreMeta(fs, storeMeta{Shards: n, Shard: i, Partitioner: fnvName}); err != nil {
			return fmt.Errorf("shard %d: write store metadata: %w", i, err)
		}
	}
	return nil
}

// NumShards reports the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// Shard exposes shard i (observability and tests).
func (db *DB) Shard(i int) *lsm.DB { return db.shards[i] }

// Events returns the store's background-event journal.
func (db *DB) Events() *obs.Journal { return db.events }

// ApplyLatency returns the recorder timing each batch's commit
// execution. Snapshot it for quantiles; Record on it is not for callers.
func (db *DB) ApplyLatency() *obs.Hist { return db.applyLat }

// pick returns the shard owning key.
func (db *DB) pick(key []byte) *lsm.DB {
	return db.shards[fnv(key, len(db.shards))]
}

// Put associates value with key on the owning shard, committing at a
// fresh store-clock epoch.
func (db *DB) Put(key, value []byte) error {
	return db.writeOne(key, value, base.KindSet)
}

// Get returns the value stored under key, or lsm.ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) { return db.pick(key).Get(key) }

// GetTraced is Get with an optional sampled trace attached; the owning
// shard records an sstable_read span for every disk read the lookup
// pays. tr is nil on the untraced path.
func (db *DB) GetTraced(key []byte, tr *obs.Trace) ([]byte, error) {
	return db.pick(key).GetTraced(key, tr)
}

// Delete removes key (writing a tombstone on the owning shard).
func (db *DB) Delete(key []byte) error {
	return db.writeOne(key, nil, base.KindDelete)
}

// writeOne commits one operation on key's shard at a fresh epoch — the
// degenerate, inline form of the commit pipeline. Uncontended it takes
// two locks (the shard's commit lock and the engine's) and parks nowhere.
func (db *DB) writeOne(key, value []byte, kind base.Kind) error {
	i := fnv(key, len(db.shards))
	s := db.shards[i]
	// Absorb write stalls before taking the ticket: a stalled commit
	// holding the shard's commit lock would block every ticket behind it
	// (snapshots and cross-shard batches included, and through them the
	// other shards) for the length of a compaction.
	if err := s.WaitWritable(); err != nil {
		return err
	}
	start := time.Now()
	epoch := db.clk.acquire([]int{i})
	err := s.WriteAt(epoch, key, value, kind)
	db.clk.release(i)
	db.applyLat.Record(time.Since(start))
	return err
}

// Batch is re-exported so callers build batches without importing lsm.
type Batch = lsm.Batch

// Commit is a prepared batch holding its epoch ticket — its place in
// the store-wide total commit order — and with it the commit lock of
// every shard it touches. Exactly one Commit call must follow Prepare,
// and settles the ticket even when it fails: an abandoned ticket blocks
// every later write and snapshot on its shards.
type Commit struct {
	db     *DB
	b      *Batch
	subs   []*lsm.Batch // per shard; nil where the batch has no ops
	shards []int        // touched shard indices, ascending
	epoch  uint64
	used   bool
	trs    obs.Traces // sampled traces riding this commit (usually nil)
	// wg waits for the sub-batches committed beside the caller's; a field,
	// so that a one-shard commit allocates none.
	wg sync.WaitGroup
}

// Trace attaches the group's sampled request traces; each receives the
// engine-side wal_append / memtable_apply spans when the commit
// executes. Call between Prepare and Commit.
func (c *Commit) Trace(trs obs.Traces) { c.trs = trs }

// Prepare stages b in the commit pipeline: validate, split into
// per-shard sub-batches, absorb write stalls, and take the epoch ticket
// — waiting, on each touched shard, for the ticket ahead to release it.
// The returned Commit's epoch is final — later Prepares get later
// epochs — which is what lets a caller (the server's group committer)
// run several Commits at once: they land in Prepare order on every shard
// they share.
func (db *DB) Prepare(b *Batch) (*Commit, error) {
	if b.Committed() {
		return nil, errors.New("shard: batch already applied (Reset to reuse)")
	}
	for _, e := range b.Ops() {
		if len(e.Key) == 0 {
			return nil, errors.New("shard: empty key in batch")
		}
	}
	// Size every sub-batch before filling it, so none reallocates.
	subs := make([]*lsm.Batch, len(db.shards))
	counts := make([]int, len(db.shards))
	for _, e := range b.Ops() {
		counts[fnv(e.Key, len(db.shards))]++
	}
	for i, n := range counts {
		if n > 0 {
			subs[i] = &lsm.Batch{}
			subs[i].Grow(n)
		}
	}
	for _, e := range b.Ops() {
		// The outer batch's Put/Delete already made defensive
		// copies; PutEntry re-queues them without copying again.
		subs[fnv(e.Key, len(db.shards))].PutEntry(e)
	}
	var idxs []int
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		idxs = append(idxs, i)
		// Absorb write stalls before taking the ticket (see writeOne).
		if err := db.shards[i].WaitWritable(); err != nil {
			return nil, err
		}
	}
	return &Commit{db: db, b: b, subs: subs, shards: idxs, epoch: db.clk.acquire(idxs)}, nil
}

// Epoch reports the commit's position in the store-wide total order.
func (c *Commit) Epoch() uint64 { return c.epoch }

// Commit applies the per-shard sub-batches, each at the ticket's epoch,
// releasing each shard as its sub-batch lands. A failure can still leave
// the batch applied on some shards and not others (the batch then stays
// uncommitted, so retrying with a fresh Prepare is safe — re-applying a
// Put/Delete set is idempotent); every shard is always released, so an
// error never wedges the pipeline. The last sub-batch commits on the
// caller's goroutine and the others beside it, so a one-shard batch
// starts no goroutine and its commit allocates nothing.
//
// Write stalls are absorbed at Prepare time, before the ticket exists; a
// stall that develops between Prepare and Commit is sat out inside the
// engine's commit with the shard's commit lock held. Only that shard's
// writers wait behind it — the other shards keep committing — unless a
// snapshot or a cross-shard batch arrives, which queues on the stalled
// shard holding the lower-numbered ones.
func (c *Commit) Commit() error {
	if c.used {
		return errors.New("shard: commit already executed (Prepare again)")
	}
	c.used = true
	db := c.db
	if len(c.shards) == 0 { // empty batch: its ticket holds no shard
		c.b.MarkCommitted()
		return nil
	}
	start := time.Now()
	last := len(c.shards) - 1
	errs := make([]error, last) // the other sub-batches': none, and no allocation, for one shard
	for j, i := range c.shards[:last] {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			errs[j] = c.commitOn(i)
		}()
	}
	err := c.commitOn(c.shards[last])
	c.wg.Wait()
	db.applyLat.Record(time.Since(start))
	if err := errors.Join(err, errors.Join(errs...)); err != nil {
		return err
	}
	c.b.MarkCommitted()
	return nil
}

// commitOn commits the sub-batch of shard i and releases the shard.
func (c *Commit) commitOn(i int) error {
	err := c.db.shards[i].CommitAt(c.epoch, c.subs[i], c.trs)
	c.db.clk.release(i)
	return err
}

// Apply commits b through the pipeline: every batch — single- or
// cross-shard — commits at one totally ordered epoch, and batches
// sharing a shard commit there in epoch order. Two concurrent
// conflicting cross-shard Applies are therefore serializable: whichever
// drew the later epoch commits second on every shard they share, so the
// store always ends in a state some serial execution produces, and
// snapshots only ever observe prefixes of that order.
//
// Point reads can still observe a cross-shard batch half applied (they
// are not epoch-pinned); a scan or a Snapshot cannot.
func (db *DB) Apply(b *Batch) error {
	c, err := db.Prepare(b)
	if err != nil {
		return err
	}
	return c.Commit()
}

// LastEpoch reports the last epoch the commit clock drew. Its ticket may
// still be applying.
func (db *DB) LastEpoch() uint64 { return db.clk.last.Load() }

// WaitCommitted returns once every ticket drawn before the call — epoch
// included — has applied on each of its shards: it takes and drops each
// shard's commit lock in index order. A ticket holds all its locks before
// it draws its epoch, so once the sweep has passed a shard, every earlier
// ticket there has released it. The store no longer calls it (the
// server's barrier waits on its connection's own groups); it stays for
// callers that hold only an epoch.
func (db *DB) WaitCommitted(epoch uint64) {
	for i := range db.clk.shards {
		db.clk.shards[i].Lock()
		db.clk.shards[i].Unlock()
	}
}

// Flush seals and drains every shard's memtable, in parallel.
func (db *DB) Flush() error {
	return db.fanOut(func(_ int, s *lsm.DB) error { return s.Flush() })
}

// CompactAll drains all pending compactions on every shard, in parallel.
func (db *DB) CompactAll() error {
	return db.fanOut(func(_ int, s *lsm.DB) error { return s.CompactAll() })
}

// Close drains background work on every shard and releases all
// resources. All shards are closed even if one fails; the first error is
// returned.
func (db *DB) Close() error { return db.closeAll() }

func (db *DB) closeAll() error {
	err := db.fanOut(func(_ int, s *lsm.DB) error { return s.Close() })
	// The pool outlives the shards: each shard's Close cancels its own
	// owner (waiting out its running tasks) first, so by now the pool
	// is idle and tearing it down cannot strand engine work.
	db.sched.Close()
	return err
}

// Scheduler exposes the store-wide background pool.
func (db *DB) Scheduler() *bgsched.Pool { return db.sched }

// fanOut runs fn on every shard concurrently and returns the first
// error. Every fn runs to completion regardless of other shards' errors.
func (db *DB) fanOut(fn func(i int, s *lsm.DB) error) error {
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i, s := range db.shards {
		wg.Add(1)
		go func(i int, s *lsm.DB) {
			defer wg.Done()
			errs[i] = fn(i, s)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}
