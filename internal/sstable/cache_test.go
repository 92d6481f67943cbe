package sstable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/base"
	"repro/internal/vfs"
)

// TestBlockCacheLRU: a newcomer displaces the resident block nobody read
// again, not the one a Get touched since.
func TestBlockCacheLRU(t *testing.T) {
	h := NewCache(100).NewHandle()
	defer h.Release()
	h.Put(1, 0, make([]byte, 40))
	h.Put(1, 40, make([]byte, 40))
	if used := h.c.Resident(); used != 80 {
		t.Fatalf("resident = %d", used)
	}
	// Touch the first block so the second becomes LRU.
	if h.Get(1, 0) == nil {
		t.Fatal("miss on resident block")
	}
	// Inserting 40 more evicts (1, 40).
	h.Put(2, 0, make([]byte, 40))
	if h.Get(1, 40) != nil {
		t.Fatal("LRU block not evicted")
	}
	if h.Get(1, 0) == nil || h.Get(2, 0) == nil {
		t.Fatal("recently used blocks evicted")
	}
	st := h.Stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %d/%d, want 3/1", st.Hits, st.Misses)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestBlockCacheOversizedNotAdmitted(t *testing.T) {
	c := NewCache(10)
	h := c.NewHandle()
	defer h.Release()
	h.Put(1, 0, make([]byte, 100))
	if c.Resident() != 0 {
		t.Fatal("oversized block admitted")
	}
}

func TestBlockCacheReplaceSameKey(t *testing.T) {
	c := NewCache(1000)
	h := c.NewHandle()
	defer h.Release()
	h.Put(1, 0, make([]byte, 100))
	h.Put(1, 0, make([]byte, 50))
	if c.Resident() != 50 {
		t.Fatalf("resident after replace = %d", c.Resident())
	}
	if h.Stats().Resident != 50 {
		t.Fatalf("tenant resident after replace = %d", h.Stats().Resident)
	}
}

func TestBlockCacheEvictTable(t *testing.T) {
	c := NewCache(1 << 20)
	h := c.NewHandle()
	defer h.Release()
	h.Put(1, 0, make([]byte, 10))
	h.Put(1, 10, make([]byte, 10))
	h.Put(2, 0, make([]byte, 10))
	h.EvictTable(1)
	if h.Get(1, 0) != nil || h.Get(1, 10) != nil {
		t.Fatal("EvictTable left table-1 blocks")
	}
	if h.Get(2, 0) == nil {
		t.Fatal("EvictTable removed another table's block")
	}
	if c.Resident() != 10 {
		t.Fatalf("resident = %d", c.Resident())
	}
}

func TestNilBlockCacheSafe(t *testing.T) {
	var c *Cache
	var h *Handle = c.NewHandle()
	if h != nil {
		t.Fatal("nil cache produced a live handle")
	}
	h.Put(1, 0, []byte("x"))
	if h.Get(1, 0) != nil {
		t.Fatal("nil cache returned data")
	}
	h.EvictTable(1)
	h.Release()
	if st := h.Stats(); st != (CacheStats{}) {
		t.Fatal("nil handle has stats")
	}
	if c.Resident() != 0 || c.Capacity() != 0 {
		t.Fatal("nil cache has usage")
	}
	if NewCache(0) != nil {
		t.Fatal("zero-capacity cache not nil")
	}
}

// TestCacheTenantIsolation pins the multi-tenant keying: two handles
// using the same (table, offset) coordinates must not observe each
// other's blocks — the property that lets every shard share one cache
// without coordinating table-ID allocation.
func TestCacheTenantIsolation(t *testing.T) {
	c := NewCache(1 << 20)
	a, b := c.NewHandle(), c.NewHandle()
	defer b.Release()
	a.Put(1, 0, []byte("from-a"))
	if b.Get(1, 0) != nil {
		t.Fatal("tenant b read tenant a's block")
	}
	b.Put(1, 0, []byte("from-b"))
	if got := string(a.Get(1, 0)); got != "from-a" {
		t.Fatalf("tenant a's block clobbered: %q", got)
	}
	if ra, rb := a.Stats().Resident, b.Stats().Resident; ra != 6 || rb != 6 {
		t.Fatalf("per-tenant resident = %d/%d, want 6/6", ra, rb)
	}
	a.Release()
	if a.Stats().Resident != 0 || a.Get(1, 0) != nil {
		t.Fatal("Release left tenant a's blocks")
	}
	if got := string(b.Get(1, 0)); got != "from-b" {
		t.Fatal("Release dropped another tenant's block")
	}
}

// TestCacheScanResistance is the regression gate for the admission
// filter: fill a hot working set, hammer it until it is established,
// stream a full-keyspace one-touch scan 16x the cache size through the
// same cache, then re-read the hot set. The cache must keep serving the
// hot set; a set read only once must fail the same floor, so it is the
// reads, not the scan's size, that keep the hot set.
func TestCacheScanResistance(t *testing.T) {
	const (
		blockSize = 4 << 10
		capacity  = 512 << 10
		hotBlocks = 32
		scanSpan  = 4096 // 16 MiB of one-touch traffic
		floor     = 0.75
	)
	hotRate := func(h *Handle, rounds int) float64 {
		defer h.Release()
		blk := make([]byte, blockSize)
		// Establish the hot set: with 8 rounds, enough for promotion into
		// the protected queue and a solid frequency-sketch footprint.
		for round := 0; round < rounds; round++ {
			for i := uint64(0); i < hotBlocks; i++ {
				if h.Get(1, i*blockSize) == nil {
					h.Put(1, i*blockSize, blk)
				}
			}
		}
		// The scan: every block touched exactly once.
		for i := uint64(0); i < scanSpan; i++ {
			if h.Get(2, i*blockSize) == nil {
				h.Put(2, i*blockSize, blk)
			}
		}
		hits := 0
		for i := uint64(0); i < hotBlocks; i++ {
			if h.Get(1, i*blockSize) != nil {
				hits++
			}
		}
		return float64(hits) / hotBlocks
	}
	if rate := hotRate(NewCache(capacity).NewHandle(), 8); rate < floor {
		t.Errorf("hot hit rate %.2f after scan, want >= %.2f", rate, floor)
	}
	if rate := hotRate(NewCache(capacity).NewHandle(), 1); rate >= floor {
		t.Errorf("a set read once survived the scan (hit rate %.2f) — the regression floor has no teeth", rate)
	}
	// The deflected scan traffic must be visible in the stats.
	h := NewCache(capacity).NewHandle()
	_ = hotRate(h, 8)
	if st := h.Stats(); st.AdmissionRejects == 0 {
		t.Error("no admission rejects recorded during the scan")
	} else if st.Resident > st.Capacity {
		t.Errorf("over budget: resident %d > capacity %d", st.Resident, st.Capacity)
	}
}

// TestCacheWorkingSetLargerThanCacheEvicts: blocks read once each tie in
// the frequency sketch, and a tie admits the newcomer, so a stream of
// one-touch reads larger than the cache cycles through it instead of the
// cache freezing on whatever arrived first and refusing everything after.
// (Sketch collisions still make some victims look used, so not every
// newcomer gets in.)
func TestCacheWorkingSetLargerThanCacheEvicts(t *testing.T) {
	const block, blocks, reads = 1 << 10, 8, 64
	c := NewCache(blocks * block) // one segment
	h := c.NewHandle()
	defer h.Release()
	for i := uint64(0); i < reads; i++ {
		if h.Get(1, i*block) == nil {
			h.Put(1, i*block, make([]byte, block))
		}
	}
	st := h.Stats()
	resident := 0
	for i := uint64(0); i < blocks; i++ {
		if h.Get(1, i*block) != nil {
			resident++
		}
	}
	if st.Evictions < (reads-blocks)/2 || resident > blocks/2 {
		t.Fatalf("streaming %d one-touch blocks through a %d-block cache: %d evictions, %d rejects, %d of the first %d blocks still resident",
			reads, blocks, st.Evictions, st.AdmissionRejects, resident, blocks)
	}
}

// TestCacheProtectedPromotion checks the SLRU mechanics: a block
// touched twice moves to the protected queue and outlives a burst of
// one-touch arrivals that flows through probation.
func TestCacheProtectedPromotion(t *testing.T) {
	// Small enough for one segment, so queue behaviour is exact.
	c := NewCache(8 << 10)
	h := c.NewHandle()
	defer h.Release()
	blk := make([]byte, 1<<10)
	h.Put(1, 0, blk)
	if h.Get(1, 0) == nil { // second touch: promote
		t.Fatal("resident block missed")
	}
	// Fill the rest of the segment with one-touch blocks, then keep
	// pushing: the hot block must survive every displacement round.
	for i := uint64(1); i < 32; i++ {
		h.Put(1, i<<10, blk)
	}
	if h.Get(1, 0) == nil {
		t.Fatal("promoted block evicted by one-touch traffic")
	}
}

func TestBlockCacheConcurrent(t *testing.T) {
	c := NewCache(1 << 16)
	h := c.NewHandle()
	defer h.Release()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Put(uint64(g), uint64(i%50)*64, make([]byte, 64))
				h.Get(uint64(g), uint64(i%50)*64)
			}
		}(g)
	}
	wg.Wait()
	if c.Resident() > 1<<16 {
		t.Fatalf("cache over budget: %d", c.Resident())
	}
}

// TestBlockCacheConcurrentContended drives parallel Put/Get/EvictTable/
// Stats/Used over a *shared* key set through a cache small enough to
// evict constantly — the access pattern of the store-wide read hot
// path, where every shard's readers share the one cache. Run under
// -race in CI; the invariant checked here is that the budget holds and
// the structure survives.
func TestBlockCacheConcurrentContended(t *testing.T) {
	const capacity = 4 << 10
	c := NewCache(capacity)
	h := c.NewHandle()
	defer h.Release()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// All goroutines fight over the same (table, offset)
				// keys, forcing concurrent recency moves / eviction of
				// shared entries.
				table := uint64(i % 4)
				off := uint64(i%16) * 256
				switch i % 7 {
				case 0:
					h.EvictTable(table)
				case 1, 2:
					if blk := h.Get(table, off); blk != nil && len(blk) == 0 {
						t.Error("cached block lost its contents")
						return
					}
				default:
					h.Put(table, off, make([]byte, 256))
				}
				if u := c.Resident(); u < 0 || u > capacity {
					t.Errorf("cache budget violated: used=%d cap=%d", u, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := h.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
	if u := c.Resident(); u > capacity {
		t.Fatalf("cache over budget after churn: %d > %d", u, capacity)
	}
	if got := h.Stats().Resident; got != c.Resident() {
		t.Fatalf("tenant resident accounting drifted: handle %d, cache %d", got, c.Resident())
	}
}

// TestBlockCacheConcurrentReadersOneTable mimics the sharded Get path:
// many readers hammering the same hot blocks while a background
// compaction evicts a retired table, and a second tenant (another
// shard) churning its own keys through the same shared cache. The hot
// blocks must remain servable throughout.
func TestBlockCacheConcurrentReadersOneTable(t *testing.T) {
	c := NewCache(1 << 20)
	h := c.NewHandle()
	defer h.Release()
	other := c.NewHandle()
	const hotTable, coldTable = 1, 2
	for off := uint64(0); off < 32; off++ {
		h.Put(hotTable, off*512, make([]byte, 512))
	}
	var wg sync.WaitGroup
	var hits atomic.Int64
	const readers, reads = 6, 5000
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if h.Get(hotTable, uint64(i%32)*512) != nil {
					hits.Add(1)
				}
			}
		}()
	}
	// Background churn: insert and evict a competing table repeatedly,
	// on this tenant and on a second one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			h.Put(coldTable, uint64(i%8)*512, make([]byte, 512))
			other.Put(coldTable, uint64(i%8)*512, make([]byte, 512))
			if i%10 == 0 {
				h.EvictTable(coldTable)
				other.Release()
			}
		}
	}()
	wg.Wait()
	// The cache is larger than hot + cold combined, so the hot blocks
	// are never under eviction pressure: every read must have hit.
	if got := hits.Load(); got != readers*reads {
		t.Fatalf("hot-block hits = %d, want %d", got, readers*reads)
	}
	for off := uint64(0); off < 32; off++ {
		if h.Get(hotTable, off*512) == nil {
			t.Fatalf("hot block at offset %d evicted by smaller cold set", off*512)
		}
	}
}

func TestReaderServesFromCache(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, 512)
	for i := 0; i < 500; i++ {
		w.Add(base.Entry{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte("v"), Seq: uint64(i + 1), Kind: base.KindSet})
	}
	w.Finish()
	cache := NewCache(1 << 20).NewHandle()
	r, err := OpenWithCache(fs, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, found, cold, _ := r.Get([]byte("key-0100"), nil)
	if !found || cold.BlockReads != 1 {
		t.Fatalf("cold Get: found=%v cost %+v", found, cold)
	}
	_, found, warm, _ := r.Get([]byte("key-0100"), nil)
	if !found || warm.Reads() != 0 {
		t.Fatalf("warm Get: found=%v cost %+v (want no read)", found, warm)
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// TestBlockChecksumDetectsCorruption flips a byte in a data block and
// expects the read to fail loudly.
func TestBlockChecksumDetectsCorruption(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, 512)
	for i := 0; i < 200; i++ {
		w.Add(base.Entry{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte("value"), Seq: uint64(i + 1), Kind: base.KindSet})
	}
	w.Finish()
	// Corrupt a byte early in the file (inside the first data block).
	f, _ := fs.Open(FileName(1))
	size, _ := f.Size()
	buf := make([]byte, size)
	f.ReadAt(buf, 0)
	f.Close()
	buf[10] ^= 0xFF
	wf, _ := fs.Create(FileName(1))
	wf.Write(buf)
	wf.Close()

	r, err := Open(fs, 1)
	if err != nil {
		// Corruption in a metadata block is also an acceptable failure
		// point (the first data block sits before the metadata, so Open
		// itself succeeds in this layout).
		return
	}
	defer r.Close()
	if _, _, _, err := r.Get([]byte("key-0000"), nil); err == nil {
		t.Fatal("read of corrupted block succeeded")
	}
}

// TestMergeIteratorLeavesCacheAlone: a background merge's pass over a
// table uses a block a user read already cached, but offers the cache
// nothing and leaves none of its counters or queues changed — so a block
// a Get cached before the merge is still served from memory after it, and
// the admission filter's reject count keeps meaning "user misses refused".
func TestMergeIteratorLeavesCacheAlone(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, 512)
	for i := 0; i < 500; i++ {
		w.Add(base.Entry{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte("v"), Seq: uint64(i + 1), Kind: base.KindSet})
	}
	w.Finish()
	cache := NewCache(8 << 10).NewHandle() // a fraction of the table
	r, err := OpenWithCache(fs, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, found, p, _ := r.Get([]byte("key-0100"), nil); !found || p.Reads() != 1 {
		t.Fatalf("cold Get: found=%v cost %+v", found, p)
	}
	before := cache.Stats()
	readsBefore := fs.Stats.ReadOps.Load()

	var m Merge
	it, err := r.NewMergeIterator(&m)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != 500 {
		t.Fatalf("merge iterator yielded %d entries, %v", n, err)
	}
	it.Close()
	m.Close()

	if after := cache.Stats(); after != before {
		t.Fatalf("merge pass changed the cache: %+v -> %+v", before, after)
	}
	// Every block but the cached one came off the device.
	if got, want := fs.Stats.ReadOps.Load()-readsBefore, int64(len(r.index)-1); got != want {
		t.Fatalf("merge pass made %d device reads over %d blocks with one cached, want %d", got, len(r.index), want)
	}
	if _, found, p, _ := r.Get([]byte("key-0100"), nil); !found || p.Reads() != 0 {
		t.Fatalf("Get after the merge pass: found=%v cost %+v, want the block still cached", found, p)
	}
}
