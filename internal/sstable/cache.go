package sstable

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is the store-wide block cache: one budget of decoded table
// blocks shared by every shard's engine, replacing the per-shard mutex
// LRU caches the engine used before. Production LSMs (RocksDB included)
// serve hot data blocks from such a cache; lookups that hit it do not
// count as disk accesses for read amplification, matching how the
// paper's substrate behaves with its default block cache.
//
// Three properties matter on the sharded read hot path, and each is a
// deliberate structural choice:
//
//   - Lock striping. The cache is split into power-of-two segments, each
//     with its own mutex, keyed by a hash of (handle, table, offset).
//     A Get takes exactly one segment lock, so concurrent readers on
//     different blocks proceed in parallel instead of serializing
//     through one cache-wide mutex.
//
//   - Scan resistance. Each segment is a segmented LRU (a probation
//     queue for new arrivals, a protected queue for re-referenced
//     blocks) guarded by a TinyLFU-style 4-bit frequency sketch: a block
//     is admitted over a resident victim only if it has been touched at
//     least as often (a tie goes to the newcomer, as LRU would). A
//     full-keyspace streaming scan touches each block once, so its blocks
//     displace only each other in probation and lose the admission
//     comparison against the resident hot set, whose hit rate survives
//     the scan. (A compaction's read-through does not touch the cache.)
//
//   - Per-shard accounting. Every engine sharing the cache draws blocks
//     through its own Handle, which counts hits, misses, evictions and
//     resident bytes per shard. Memory is not pre-split: a hot shard
//     organically occupies more of the shared budget than a cold one,
//     and the per-handle stats make that visible.
//
// A nil *Cache (and a nil *Handle) is valid and caches nothing.
type Cache struct {
	segs    []*segment
	segMask uint64
	cap     int64
	nextID  atomic.Uint64
}

const (
	// cacheSegments is the lock-stripe count.
	cacheSegments = 16
	// minSegmentBytes keeps each stripe large enough for a handful of
	// typical 4 KiB blocks; caches smaller than cacheSegments*minSegmentBytes
	// get fewer stripes rather than degenerate ones.
	minSegmentBytes = 32 << 10
)

// NewCache returns a store-wide cache bounded to capacity bytes, or nil
// (caching disabled) when capacity <= 0.
func NewCache(capacity int64) *Cache {
	if capacity <= 0 {
		return nil
	}
	segs := cacheSegments
	for segs > 1 && capacity/int64(segs) < minSegmentBytes {
		segs >>= 1
	}
	c := &Cache{segs: make([]*segment, segs), segMask: uint64(segs - 1), cap: capacity}
	per := capacity / int64(segs)
	// Distribute the rounding remainder so segment capacities sum to the
	// configured total.
	rem := capacity - per*int64(segs)
	for i := range c.segs {
		cap := per
		if int64(i) < rem {
			cap++
		}
		c.segs[i] = newSegment(cap)
	}
	return c
}

// NewHandle registers a new accounting tenant (one per engine instance
// sharing the cache) and returns its view. Safe on a nil Cache, which
// yields a nil (no-op) Handle.
func (c *Cache) NewHandle() *Handle {
	if c == nil {
		return nil
	}
	return &Handle{c: c, id: c.nextID.Add(1)}
}

// Capacity reports the configured byte budget (0 on nil).
func (c *Cache) Capacity() int64 {
	if c == nil {
		return 0
	}
	return c.cap
}

// Resident reports the bytes the cache holds (0 on nil). Its events are
// counted per tenant only (Handle.Stats): a store's are the sum over its
// tenants.
func (c *Cache) Resident() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for _, s := range c.segs {
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time counter snapshot of one tenant
// (Handle.Stats) or a sum of tenants' (Add).
type CacheStats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Resident is the current cached byte count.
	Resident int64
	// Evictions counts blocks removed to make room (not EvictTable or
	// Release removals).
	Evictions int64
	// AdmissionRejects counts blocks the frequency filter refused to
	// admit over a more frequently used victim — the scan traffic the
	// cache deflected.
	AdmissionRejects int64
	// Capacity is the configured byte budget of the underlying cache
	// (shared across tenants for per-handle stats).
	Capacity int64
}

// Add returns s with o's counters and resident bytes added; Capacity
// stays s's.
func (s CacheStats) Add(o CacheStats) CacheStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Resident += o.Resident
	s.Evictions += o.Evictions
	s.AdmissionRejects += o.AdmissionRejects
	return s
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Handle is one tenant's view of a shared Cache: the engine instance it
// belongs to issues Get/Put/EvictTable through it, and the handle keys
// the blocks (so table IDs from different engines never collide) and
// keeps the tenant's own counters. A nil Handle is valid and caches
// nothing.
type Handle struct {
	c  *Cache
	id uint64

	hits      atomic.Int64
	misses    atomic.Int64
	resident  atomic.Int64
	evictions atomic.Int64
	rejects   atomic.Int64
}

// Stats reports this tenant's counters (resident bytes are the
// tenant's own; Capacity is the shared budget).
func (h *Handle) Stats() CacheStats {
	if h == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:             h.hits.Load(),
		Misses:           h.misses.Load(),
		Resident:         h.resident.Load(),
		Evictions:        h.evictions.Load(),
		AdmissionRejects: h.rejects.Load(),
		Capacity:         h.c.cap,
	}
}

type cacheKey struct {
	id     uint64 // handle (tenant) id
	table  uint64
	offset uint64
}

// hash mixes the key into 64 well-distributed bits (splitmix64 finish);
// the top bits pick the segment, the full value feeds the sketch.
func (k cacheKey) hash() uint64 {
	h := (k.id+1)*0x9E3779B97F4A7C15 ^ (k.table+1)*0xC2B2AE3D27D4EB4F ^ k.offset
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

func (c *Cache) seg(hash uint64) *segment {
	return c.segs[(hash>>48)&c.segMask]
}

// Get returns the cached block for (table, offset), or nil. A hit
// refreshes the block's recency and, on its second touch, promotes it
// from probation to the protected queue.
func (h *Handle) Get(table, offset uint64) []byte {
	if h == nil {
		return nil
	}
	k := cacheKey{h.id, table, offset}
	hv := k.hash()
	s := h.c.seg(hv)
	s.mu.Lock()
	s.sketch.touch(hv)
	el, ok := s.items[k]
	var block []byte
	if ok {
		e := el.Value.(*centry)
		if e.prot {
			e.home(s).MoveToFront(el)
		} else {
			s.promote(el, e)
		}
		// Capture the slice under the lock: a concurrent Put to the same
		// key replaces entry.block in place.
		block = e.block
	}
	s.mu.Unlock()
	if ok {
		h.hits.Add(1)
		return block
	}
	h.misses.Add(1)
	return nil
}

// Peek returns the cached block for (table, offset), or nil, and leaves
// the cache as it found it: no recency or frequency update, no hit or
// miss counted. It is the lookup of a background merge, whose single pass
// over a table says nothing about what users will read next.
func (h *Handle) Peek(table, offset uint64) []byte {
	if h == nil {
		return nil
	}
	k := cacheKey{h.id, table, offset}
	s := h.c.seg(k.hash())
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		return el.Value.(*centry).block
	}
	return nil
}

// Put inserts a block. New blocks enter the probation queue; when the
// segment is full, the frequency sketch arbitrates between the new
// block and the eviction victim, and the less-used of the two loses, the
// victim on a tie — which is what keeps one-touch scan traffic from
// flushing the resident hot set while a working set larger than the
// cache still cycles through it. Blocks larger than a whole segment are
// not admitted.
func (h *Handle) Put(table, offset uint64, block []byte) {
	if h == nil {
		return
	}
	k := cacheKey{h.id, table, offset}
	hv := k.hash()
	s := h.c.seg(hv)
	sz := int64(len(block))
	if sz > s.cap {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		// Replace in place (a racing reader of the same block).
		e := el.Value.(*centry)
		delta := sz - int64(len(e.block))
		e.block = block
		s.used += delta
		if e.prot {
			s.protUsed += delta
		}
		h.resident.Add(delta)
		for s.used > s.cap {
			vel := s.victim()
			if vel == nil {
				break
			}
			s.evict(vel)
		}
		return
	}
	// Admission: evict victims until the block fits, unless a victim is
	// used more often than the candidate — then the candidate is the one
	// that loses. A tie goes to the candidate, the more recent of the two:
	// the sketch cannot tell them apart, and two blocks read once each
	// always tie, so refusing ties would freeze the cache on whatever
	// arrived first once the working set outgrows it.
	for s.used+sz > s.cap {
		vel := s.victim()
		if vel == nil {
			break
		}
		ve := vel.Value.(*centry)
		if s.sketch.estimate(hv) < s.sketch.estimate(ve.hash) {
			h.rejects.Add(1)
			return
		}
		s.evict(vel)
	}
	e := &centry{key: k, hash: hv, block: block, owner: h}
	s.items[k] = s.probation.PushFront(e)
	s.used += sz
	h.resident.Add(sz)
}

// EvictTable drops every cached block of one of this tenant's tables
// (called when compaction deletes the file).
func (h *Handle) EvictTable(table uint64) {
	if h == nil {
		return
	}
	h.c.drop(func(k cacheKey) bool { return k.id == h.id && k.table == table })
}

// Release drops every block this tenant holds — called when its engine
// closes so a long-lived shared cache does not retain dead bytes.
func (h *Handle) Release() {
	if h == nil {
		return
	}
	h.c.drop(func(k cacheKey) bool { return k.id == h.id })
}

// drop removes every entry matching the predicate (not counted as an
// eviction: the bytes were invalidated, not displaced).
func (c *Cache) drop(match func(cacheKey) bool) {
	for _, s := range c.segs {
		s.mu.Lock()
		for _, q := range []*list.List{&s.probation, &s.protected} {
			for el := q.Front(); el != nil; {
				next := el.Next()
				e := el.Value.(*centry)
				if match(e.key) {
					s.remove(el, e)
				}
				el = next
			}
		}
		s.mu.Unlock()
	}
}

// centry is one cached block.
type centry struct {
	key   cacheKey
	hash  uint64
	block []byte
	owner *Handle
	prot  bool // resident in the protected queue
}

func (e *centry) home(s *segment) *list.List {
	if e.prot {
		return &s.protected
	}
	return &s.probation
}

// segment is one lock stripe: an SLRU (probation + protected lists,
// front = most recent) plus its own frequency sketch.
type segment struct {
	mu        sync.Mutex
	cap       int64
	protCap   int64 // protected-queue budget (80% of cap)
	used      int64
	protUsed  int64
	probation list.List
	protected list.List
	items     map[cacheKey]*list.Element
	sketch    sketch
}

func newSegment(capacity int64) *segment {
	s := &segment{cap: capacity, protCap: capacity * 4 / 5}
	s.probation.Init()
	s.protected.Init()
	s.items = make(map[cacheKey]*list.Element)
	// Size the sketch to roughly the number of 1 KiB granules the segment
	// can hold — a few counters per typical 4 KiB block.
	s.sketch = newSketch(int(capacity / 1024))
	return s
}

// promote moves a probation entry to the protected queue, demoting
// protected LRU entries back to probation until the protected budget
// holds.
func (s *segment) promote(el *list.Element, e *centry) {
	s.probation.Remove(el)
	e.prot = true
	s.items[e.key] = s.protected.PushFront(e)
	s.protUsed += int64(len(e.block))
	for s.protUsed > s.protCap {
		tail := s.protected.Back()
		if tail == nil {
			break
		}
		te := tail.Value.(*centry)
		s.protected.Remove(tail)
		te.prot = false
		s.protUsed -= int64(len(te.block))
		s.items[te.key] = s.probation.PushFront(te)
	}
}

// victim returns the next eviction candidate: the probation LRU tail,
// falling back to the protected tail when probation is empty.
func (s *segment) victim() *list.Element {
	if el := s.probation.Back(); el != nil {
		return el
	}
	return s.protected.Back()
}

// evict removes an entry to make room, charging an eviction to the owning
// tenant.
func (s *segment) evict(el *list.Element) {
	e := el.Value.(*centry)
	s.remove(el, e)
	e.owner.evictions.Add(1)
}

// remove unlinks an entry and settles the byte accounting.
func (s *segment) remove(el *list.Element, e *centry) {
	e.home(s).Remove(el)
	delete(s.items, e.key)
	sz := int64(len(e.block))
	s.used -= sz
	if e.prot {
		s.protUsed -= sz
	}
	e.owner.resident.Add(-sz)
}

// sketch is a TinyLFU-style frequency estimator: a count-min sketch of
// 4-bit saturating counters (16 per word), four probes per key, halved
// once the touch count reaches a multiple of the table size so stale
// popularity decays and the estimates track the recent access window.
type sketch struct {
	words     []uint64
	mask      uint32
	samples   int
	sampleCap int
}

func newSketch(counters int) sketch {
	const minCounters = 256
	if counters < minCounters {
		counters = minCounters
	}
	n := 1
	for n < counters {
		n <<= 1
	}
	return sketch{
		words:     make([]uint64, n/16),
		mask:      uint32(n - 1),
		sampleCap: n * 8,
	}
}

// index derives probe i's counter index from the key hash.
func (sk *sketch) index(h uint64, i int) uint32 {
	h += uint64(i+1) * 0x9E3779B97F4A7C15
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 32
	return uint32(h) & sk.mask
}

// touch records one access.
func (sk *sketch) touch(h uint64) {
	added := false
	for i := 0; i < 4; i++ {
		idx := sk.index(h, i)
		word, shift := idx>>4, (idx&15)*4
		if (sk.words[word]>>shift)&0xF < 15 {
			sk.words[word] += 1 << shift
			added = true
		}
	}
	if added {
		if sk.samples++; sk.samples >= sk.sampleCap {
			sk.age()
		}
	}
}

// estimate returns the key's approximate touch count in the current
// window (min over the four probes).
func (sk *sketch) estimate(h uint64) uint64 {
	min := uint64(15)
	for i := 0; i < 4; i++ {
		idx := sk.index(h, i)
		if v := (sk.words[idx>>4] >> ((idx & 15) * 4)) & 0xF; v < min {
			min = v
		}
	}
	return min
}

// age halves every counter, decaying old popularity.
func (sk *sketch) age() {
	for i, w := range sk.words {
		sk.words[i] = (w >> 1) & 0x7777777777777777
	}
	sk.samples /= 2
}
