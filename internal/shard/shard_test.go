package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// smallEngine returns a per-shard configuration tiny enough that the
// tests exercise flushes and compactions, not just the memtable.
func smallEngine() lsm.Options {
	o := lsm.TriadOptions(nil)
	o.MemtableBytes = 32 << 10
	o.CommitLogBytes = 128 << 10
	o.FlushThresholdBytes = 16 << 10
	o.BaseLevelBytes = 256 << 10
	o.TargetFileBytes = 64 << 10
	return o
}

// openMem opens an in-memory store that the test's cleanup closes. Before
// it closes the store, the cleanup checks that the test left no snapshot
// or iterator open on it and no epoch ticket outstanding (a Prepare never
// committed nor aborted holds its shards' commit locks for good); after,
// that no file handle is left open on any shard's filesystem.
func openMem(t *testing.T, shards int) *DB {
	t.Helper()
	newFS, checkClosed := leakcheck.ShardMemFS(t, shards)
	db, err := Open(Options{Shards: shards, Engine: smallEngine(), NewFS: newFS})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		checkReleased(t, db)
		db.Close()
		checkClosed()
	})
	return db
}

// checkReleased fails t if db has a snapshot, an iterator or an epoch
// ticket outstanding. Close releases all of them, so after it there is
// nothing to see.
func checkReleased(t *testing.T, db *DB) {
	t.Helper()
	if n := db.OpenSnapshots(); n != 0 {
		t.Errorf("%d store snapshots still open", n)
	}
	for i, s := range db.shards {
		if n := s.OpenSnapshots(); n != 0 {
			t.Errorf("shard %d: %d snapshots (or iterators) still open", i, n)
		}
	}
	if held := heldShards(db.clk); len(held) > 0 {
		t.Errorf("commit locks of shards %v still held: a ticket was never committed or aborted", held)
	}
}

// TestBehaviorParity drives the same pseudo-random put/delete/get
// sequence against a 4-shard DB and a map oracle, then checks every key
// and a full iteration — the same behavioral contract lsm.DB satisfies.
func TestBehaviorParity(t *testing.T) {
	db := openMem(t, 4)

	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(5000))
		switch rng.Intn(10) {
		case 0: // delete
			delete(oracle, k)
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		default:
			v := fmt.Sprintf("val-%d", i)
			oracle[k] = v
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for k, want := range oracle {
		got, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, got, want)
		}
	}
	if _, err := db.Get([]byte("absent-key")); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}

	it, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := map[string]string{}
	for it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if len(got) != len(oracle) {
		t.Fatalf("iterated %d keys, oracle has %d", len(got), len(oracle))
	}
	for k, v := range oracle {
		if got[k] != v {
			t.Fatalf("iterator: %s = %q, want %q", k, got[k], v)
		}
	}
}

// TestIteratorGloballySorted checks the k-way merge yields strictly
// ascending keys across shard boundaries, respects [start, limit), and
// yields the right entry count.
func TestIteratorGloballySorted(t *testing.T) {
	db := openMem(t, 8)

	var keys []string
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%06d", i*7%3000)
		keys = append(keys, k)
		if err := db.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil { // exercise the on-disk read path too
		t.Fatal(err)
	}
	sort.Strings(keys)

	it, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var prev []byte
	n := 0
	for it.Next() {
		if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
			t.Fatalf("keys out of order: %q after %q", it.Key(), prev)
		}
		if string(it.Key()) != keys[n] {
			t.Fatalf("entry %d = %q, want %q", n, it.Key(), keys[n])
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if n != 3000 {
		t.Fatalf("iterated %d entries, want 3000", n)
	}

	// Bounded scan. (The earlier defer bound the first iterator's
	// receiver, so this one needs its own Close.)
	it, err = db.NewIterator([]byte("k000100"), []byte("k000200"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n = 0
	for it.Next() {
		k := string(it.Key())
		if k < "k000100" || k >= "k000200" {
			t.Fatalf("key %q outside [k000100, k000200)", k)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("bounded scan saw %d keys, want 100", n)
	}
}

// TestBatchFanout applies one batch whose keys span every shard and
// checks routing, atomum-per-shard visibility, reuse protection and
// Reset.
func TestBatchFanout(t *testing.T) {
	db := openMem(t, 4)

	var b Batch
	for i := 0; i < 400; i++ {
		b.Put([]byte(fmt.Sprintf("batch-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	b.Delete([]byte("batch-0007"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}

	// Reuse without Reset must fail; after Reset it must work.
	if err := db.Apply(&b); err == nil {
		t.Fatal("re-Apply of committed batch succeeded")
	}
	b.Reset()
	b.Put([]byte("after-reset"), []byte("ok"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("batch-%04d", i)
		v, err := db.Get([]byte(k))
		if i == 7 {
			if !errors.Is(err, lsm.ErrNotFound) {
				t.Fatalf("deleted key %s: err = %v", k, err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}

	// The batch must actually have fanned out: with 400 fnv-hashed keys
	// every shard should have received writes.
	for i := 0; i < db.NumShards(); i++ {
		if db.Shard(i).Metrics().UserWrites == 0 {
			t.Fatalf("shard %d received no batch writes", i)
		}
	}
}

// TestApplyLeavesNoTicket drives Apply through every batch shape Prepare
// accepts, and the ones it refuses, on a one-shard store (where the batch
// is its own sub-batch) and a four-shard one: after each, every shard's
// commit lock is free, so no ticket is left to park the writes and
// snapshots behind it.
func TestApplyLeavesNoTicket(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db := openMem(t, shards)
		batch := func(keys ...[]byte) *Batch {
			b := &Batch{}
			for i, k := range keys {
				if i%3 == 2 {
					b.Delete(k)
				} else {
					b.Put(k, []byte("v"))
				}
			}
			return b
		}
		var every [][]byte
		for i := 0; i < shards; i++ {
			every = append(every, keysOn(db, i, 2, "every")...)
		}
		del := &Batch{}
		del.Delete([]byte("k"))
		put := batch([]byte("k"))
		for _, c := range []struct {
			name   string
			b      *Batch
			refuse bool
		}{
			{"empty", &Batch{}, false},
			{"one put", put, false},
			{"one delete", del, false},
			{"one shard", batch(keysOn(db, shards-1, 5, "one")...), false},
			{"every shard", batch(every...), false},
			{"already committed", put, true},
			{"empty key", batch([]byte("a"), []byte{}), true},
		} {
			before := db.clk.last.Load()
			err := db.Apply(c.b)
			if (err != nil) != c.refuse {
				t.Fatalf("%d shards, %s: Apply = %v", shards, c.name, err)
			}
			if !c.refuse && db.clk.last.Load() == before {
				t.Errorf("%d shards, %s: Apply drew no ticket", shards, c.name)
			}
			if held := heldShards(db.clk); len(held) > 0 { // and the next Apply would wait for them forever
				t.Fatalf("%d shards, %s: commit locks of shards %v still held", shards, c.name, held)
			}
		}
	}
}

// TestPartitionerDistributionAndStability: fnv must spread keys roughly
// evenly and always send the same key to the same shard.
func TestPartitionerDistributionAndStability(t *testing.T) {
	const n, keys = 8, 20_000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("user:%d", i))
		s := fnv(k, n)
		if s2 := fnv(k, n); s2 != s {
			t.Fatalf("unstable partition for %s: %d then %d", k, s, s2)
		}
		counts[s]++
	}
	want := keys / n
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("shard %d holds %d of %d keys (want ~%d): %v", i, c, keys, want, counts)
		}
	}
	if fnv([]byte("x"), 1) != 0 {
		t.Fatal("n=1 must route to shard 0")
	}
}

// TestRecovery closes a sharded store and reopens it over the same
// filesystems: every shard must replay its own WAL/manifest.
func TestRecovery(t *testing.T) {
	fses := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS()}
	newFS := func(i int) (vfs.FS, error) { return fses[i], nil }
	opts := Options{Shards: 3, Engine: smallEngine(), NewFS: newFS}

	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete([]byte("key-00042")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v, err := db.Get([]byte(k))
		if i == 42 {
			if !errors.Is(err, lsm.ErrNotFound) {
				t.Fatalf("deleted key survived recovery: %v", err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after recovery Get(%s) = %q, %v", k, v, err)
		}
	}
}

// TestPowerCutKeepsFlushedWrites: with SyncWAL off, a write a sharded
// store acknowledged before Flush returned survives a power cut. Rounds of
// cross-shard batches rewrite the hot keys three times and write cold ones
// once, so each Flush keeps the hot keys in memory (TRIAD-MEM) and writes
// them back to the live logs; then every shard's filesystem is cut to its
// synced bytes (vfs.MemFS.Crash) and the store reopened. Every write must
// read back, each shard must be consistent, and a full scan must equal the
// oracle.
func TestPowerCutKeepsFlushedWrites(t *testing.T) {
	fses := []*vfs.MemFS{vfs.NewMemFS(), vfs.NewMemFS()}
	opts := Options{Shards: 2, Engine: smallEngine()}
	opts.Engine.SyncWAL = false
	opts.NewFS = func(i int) (vfs.FS, error) { return fses[i], nil }
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	oracle := map[string]string{}
	for round := 0; round < 20; round++ {
		for pass := 0; pass < 3; pass++ {
			var b Batch
			put := func(k, v string) {
				b.Put([]byte(k), []byte(v))
				oracle[k] = v
			}
			for i := 0; i < 15; i++ {
				put(fmt.Sprintf("hot-%02d", i), fmt.Sprintf("round %02d pass %d %090d", round, pass, i))
			}
			for c := pass; c < 50; c += 3 {
				put(fmt.Sprintf("cold-%02d-%02d", round, c), fmt.Sprintf("%0100d", c))
			}
			if err := db.Apply(&b); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if kept := db.Metrics().HotKeysKeptInMem; kept < 15*19 {
		t.Fatalf("flushes kept %d hot keys in memory, want at least %d", kept, 15*19)
	}

	opts.NewFS = func(i int) (vfs.FS, error) { return fses[i].Crash(), nil }
	rdb, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	for i := 0; i < rdb.NumShards(); i++ {
		if err := rdb.Shard(i).CheckConsistency(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	lost := 0
	for k, want := range oracle {
		if got, err := rdb.Get([]byte(k)); err != nil || string(got) != want {
			if lost++; lost <= 3 {
				t.Errorf("Get(%s) after the power cut = %.20q, %v; want %.20q", k, got, err, want)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged keys lost", lost, len(oracle))
	}
	it, err := rdb.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for ; it.Next(); n++ {
		if want, ok := oracle[string(it.Key())]; !ok || string(it.Value()) != want {
			t.Fatalf("scan: %s = %.20q, oracle %.20q", it.Key(), it.Value(), want)
		}
	}
	if err := it.Err(); err != nil || n != len(oracle) {
		t.Fatalf("scan saw %d keys, %v; oracle has %d", n, err, len(oracle))
	}
}

// TestConcurrentWriters hammers all shards from parallel goroutines
// (run under -race in CI) and verifies the metrics roll-up sees every
// write exactly once.
func TestConcurrentWriters(t *testing.T) {
	db := openMem(t, 4)

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-%05d", w, i))
				if err := db.Put(k, []byte("v")); err != nil {
					errCh <- err
					return
				}
				if i%3 == 0 {
					if _, err := db.Get(k); err != nil {
						errCh <- fmt.Errorf("read-own-write %s: %w", k, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got := db.Metrics().UserWrites; got != workers*perWorker {
		t.Fatalf("metrics roll-up UserWrites = %d, want %d", got, workers*perWorker)
	}
}

// TestFlushAndAggregates: a coordinated Flush must push every shard's
// memtable to disk, visible through the summed level counts.
func TestFlushAndAggregates(t *testing.T) {
	db := openMem(t, 4)
	for i := 0; i < 4000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	files := db.NumLevelFiles()
	total := 0
	for _, n := range files {
		total += n
	}
	if total == 0 {
		t.Fatal("no files on any level after coordinated Flush")
	}
	var sizeTotal int64
	for _, st := range db.ShardStats() {
		sizeTotal += st.DiskBytes
	}
	if sizeTotal == 0 {
		t.Fatal("shards' disk bytes sum to zero after Flush")
	}
	stats := db.Stats()
	for _, want := range []string{"shards: 4 (fnv partitioner)", "levels", "flushes", "compactions", "WA", "RA"} {
		if !strings.Contains(stats, want) {
			t.Fatalf("Stats missing %q:\n%s", want, stats)
		}
	}
	// Per-shard flushes happened on more than one shard (the keyspace is
	// hashed, so no shard stays empty at this volume).
	flushedShards := 0
	for i := 0; i < db.NumShards(); i++ {
		if db.Shard(i).Metrics().Flushes > 0 {
			flushedShards++
		}
	}
	if flushedShards < 2 {
		t.Fatalf("only %d shards flushed; sharding not spreading load", flushedShards)
	}
}

// TestBlockCacheStatsSumShards: the store's block-cache counters, which
// the benchmark and the figure harness read, are the sum of the cache
// columns of the shards' rows, which STATS and /metrics render: each
// event is counted once, on its shard's tenant handle.
func TestBlockCacheStatsSumShards(t *testing.T) {
	newFS, checkClosed := leakcheck.ShardMemFS(t, 2)
	e := smallEngine()
	e.BlockCacheBytes = 4 << 10    // small enough to evict
	e.DisableAutoCompaction = true // no merge evicts a table between the reads below
	db, err := Open(Options{Shards: 2, Engine: e, NewFS: newFS})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		db.Close()
		checkClosed()
	}()
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				if _, err := db.Get([]byte(fmt.Sprintf("key-%05d", rng.Intn(3500)))); err != nil && !errors.Is(err, lsm.ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got := db.BlockCacheStats()
	var hits, misses, bytes int64
	for _, st := range db.ShardStats() {
		if st.CacheHits+st.CacheMisses == 0 {
			t.Fatalf("shard %d saw no cache traffic", st.Shard)
		}
		hits, misses, bytes = hits+st.CacheHits, misses+st.CacheMisses, bytes+st.CacheBytes
	}
	if got.Hits != hits || got.Misses != misses || got.Resident != bytes {
		t.Fatalf("BlockCacheStats %+v; the shards' rows sum to %d hits, %d misses, %d bytes", got, hits, misses, bytes)
	}
	if got.Evictions == 0 || got.Capacity != 2*e.BlockCacheBytes {
		t.Fatalf("BlockCacheStats %+v: want evictions from a %d-byte cache", got, 2*e.BlockCacheBytes)
	}
}

// TestCloseErrClosed: operations after Close surface lsm.ErrClosed, and
// double Close is safe.
func TestCloseErrClosed(t *testing.T) {
	db := openMem(t, 2)
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := db.Put([]byte("b"), []byte("2")); !errors.Is(err, lsm.ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, lsm.ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
}

// TestDivideBudgets: dividing then summing stays within the original
// budget, and floors keep tiny configurations alive.
func TestDivideBudgets(t *testing.T) {
	o := lsm.DefaultOptions(nil)
	o.MemtableBytes = 4 << 20
	d := DivideBudgets(o, 8)
	if d.MemtableBytes != (4<<20)/8 {
		t.Fatalf("MemtableBytes = %d", d.MemtableBytes)
	}
	if got := DivideBudgets(o, 1); got.MemtableBytes != o.MemtableBytes {
		t.Fatal("n=1 must be identity")
	}
	o.MemtableBytes = 64 << 10
	if d := DivideBudgets(o, 16); d.MemtableBytes < 32<<10 {
		t.Fatalf("floor not applied: %d", d.MemtableBytes)
	}
	// Zero-valued knobs stay zero (so withDefaults still fills them).
	o.BlockCacheBytes = 0
	if d := DivideBudgets(o, 4); d.BlockCacheBytes != 0 {
		t.Fatalf("zero sentinel scaled: %d", d.BlockCacheBytes)
	}
}

// TestOpenValidation covers constructor error paths.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{Shards: 2, Engine: smallEngine()}); err == nil {
		t.Fatal("Open without NewFS succeeded")
	}
	// A negative pool size is out of range, not a mode.
	if _, err := Open(Options{Shards: 2, Engine: smallEngine(), NewFS: MemFS(), BackgroundWorkers: -1}); err == nil {
		t.Fatal("Open with BackgroundWorkers -1 succeeded")
	}
	// A failing factory mid-open must close the shards already opened.
	calls := 0
	_, err := Open(Options{
		Shards: 3,
		Engine: smallEngine(),
		NewFS: func(i int) (vfs.FS, error) {
			calls++
			if i == 2 {
				return nil, errors.New("boom")
			}
			return vfs.NewMemFS(), nil
		},
	})
	if err == nil {
		t.Fatal("Open with failing factory succeeded")
	}
	if calls != 3 {
		t.Fatalf("factory called %d times, want 3", calls)
	}
	// Shards < 1 degrades to a single shard.
	db, err := Open(Options{Shards: 0, Engine: smallEngine(), NewFS: MemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", db.NumShards())
	}
}

// TestDirFSRefusesRootStore: shard directories under the root of a store
// opened without them are refused, naming the store's shard count, and
// none is created; the store still opens at its root.
func TestDirFSRefusesRootStore(t *testing.T) {
	dir := t.TempDir()
	root, err := vfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Engine: smallEngine(), NewFS: func(int) (vfs.FS, error) { return root, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(Options{Shards: 2, Engine: smallEngine(), NewFS: DirFS(dir)}); err == nil {
		db.Close()
		t.Fatal("Open with shard directories over a root store succeeded")
	} else if !strings.Contains(err.Error(), "created with 1 shard") {
		t.Fatalf("refusal does not name the store's shard count: %v", err)
	}
	if root.Exists("shard-000") {
		t.Fatal("the refused open created shard-000")
	}
	db, err = Open(Options{Engine: smallEngine(), NewFS: func(int) (vfs.FS, error) { return root, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("root store after the refusal: %q, %v", v, err)
	}
}

// TestL0FoldsObservable: folds show on every surface — counters, the I/O
// attribution, the journal (each fold and each L0 merge says why), STATS —
// and L0's level stats count the commit logs its CL-SSTables pin, which a
// drain leaves none of.
func TestL0FoldsObservable(t *testing.T) {
	db := openMem(t, 2)
	rng := rand.New(rand.NewSource(1))
	sawL0, sawStats := false, false // L0 is empty now and then: sample it
	for i := 0; i < 60000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", rng.Intn(20000))), bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			l0 := db.read().levels[0]
			sawL0 = sawL0 || l0.Files > 0 && l0.LogBytes > 0 && l0.Bytes > l0.LogBytes
			sawStats = sawStats || strings.Contains(db.Stats(), "pinned logs")
		}
	}
	if !sawL0 || !sawStats {
		t.Fatalf("L0 never showed the logs it pins: in its level stats %v, in STATS %v", sawL0, sawStats)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Folds == 0 || m.BytesFolded == 0 || ioBySource(m)[obs.SrcFold] != m.BytesFolded {
		t.Fatalf("%d folds, %d B folded, %d B attributed to folds", m.Folds, m.BytesFolded, ioBySource(m)[obs.SrcFold])
	}
	if written := m.BytesLogged + m.BytesFlushed + m.BytesFolded + m.BytesCompacted; m.WriteAmplification() != float64(written)/float64(m.UserBytes) {
		t.Fatalf("WA %.3f leaves out some of the %d B written", m.WriteAmplification(), written)
	}
	var folds, merges int
	for _, e := range db.Events().Events(0) {
		if strings.Contains(e.Detail, "fold ") && strings.Contains(e.Detail, "rent ") {
			folds++
		}
		if strings.Contains(e.Detail, "merge: ") && strings.Contains(e.Detail, "logs ") {
			merges++
		}
	}
	if folds == 0 || merges == 0 {
		t.Fatalf("journal explains %d folds and %d L0 merges", folds, merges)
	}
	stats := db.Stats()
	for _, want := range []string{"L0 folds: ", "folded ", "+ fold "} {
		if !strings.Contains(stats, want) {
			t.Fatalf("Stats missing %q:\n%s", want, stats)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if l0 := db.read().levels[0]; l0.Files != 0 || l0.Bytes != 0 || l0.LogBytes != 0 {
		t.Fatalf("L0 after a drain: %+v", l0)
	}
}
