// Package workload generates the keys and operations the evaluation
// drives through the store: the paper's three synthetic skew profiles
// (§5.3 — WS1 "1%-99%", WS2 "20%-80%", WS3 uniform), plain Zipf, and
// synthetic stand-ins for the four Nutanix production workloads of §5.2
// fitted to the popularity curves of Figure 7 and the sizes of Figure 8.
//
// All generators are deterministic given a seed, and each worker thread
// uses an independently seeded stream so multi-threaded runs are
// reproducible.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
)

// KeyDist picks key indexes in [0, Keys) with some popularity skew.
type KeyDist interface {
	// Next returns the next key index.
	Next(rng *rand.Rand) uint64
	// Keys is the size of the key space.
	Keys() uint64
	// Name describes the distribution.
	Name() string
}

// Uniform is the no-skew distribution (WS3).
type Uniform struct{ N uint64 }

// Next implements KeyDist.
func (u Uniform) Next(rng *rand.Rand) uint64 { return uint64(rng.Int63n(int64(u.N))) }

// Keys implements KeyDist.
func (u Uniform) Keys() uint64 { return u.N }

// Name implements KeyDist.
func (u Uniform) Name() string { return "uniform" }

// HotCold is the paper's x%-data / y%-time profile: a HotFraction of the
// key space receives HotAccess of the accesses, uniformly within each
// class (e.g. WS1 = {0.01, 0.99}, WS2 = {0.20, 0.80}).
type HotCold struct {
	N           uint64
	HotFraction float64 // fraction of keys that are hot
	HotAccess   float64 // fraction of accesses going to hot keys
}

// Next implements KeyDist.
func (h HotCold) Next(rng *rand.Rand) uint64 {
	hotKeys := uint64(float64(h.N) * h.HotFraction)
	if hotKeys == 0 {
		hotKeys = 1
	}
	if rng.Float64() < h.HotAccess {
		return uint64(rng.Int63n(int64(hotKeys)))
	}
	coldKeys := h.N - hotKeys
	if coldKeys == 0 {
		return uint64(rng.Int63n(int64(h.N)))
	}
	return hotKeys + uint64(rng.Int63n(int64(coldKeys)))
}

// Keys implements KeyDist.
func (h HotCold) Keys() uint64 { return h.N }

// Name implements KeyDist.
func (h HotCold) Name() string {
	return fmt.Sprintf("hotcold(%g%%-%g%%)", h.HotFraction*100, h.HotAccess*100)
}

// AccessProbability returns the per-key access probability for key index
// i (used to print Figure 7-style popularity curves).
func (h HotCold) AccessProbability(i uint64) float64 {
	hotKeys := uint64(float64(h.N) * h.HotFraction)
	if hotKeys == 0 {
		hotKeys = 1
	}
	if i < hotKeys {
		return h.HotAccess / float64(hotKeys)
	}
	return (1 - h.HotAccess) / float64(h.N-hotKeys)
}

// Zipf draws keys from a Zipf distribution with exponent S > 1.
type Zipf struct {
	N uint64
	S float64
}

// zipfKey identifies one sampler: rand.Zipf is not concurrency-safe and
// its constructor is expensive (it computes the distribution's
// normalization terms), so one sampler is built per (rng, N, S) and
// reused for the life of the stream. Keying by the rng pointer keeps
// samplers goroutine-local — each worker owns its rng — and streams stay
// reproducible: the sampler consumes the same rng in the same order.
type zipfKey struct {
	rng *rand.Rand
	n   uint64
	s   float64
}

// zipfSamplers caches constructed samplers. Entries are tiny (a few
// words each) and bounded by live (worker, distribution) pairs per
// process run, so no eviction is needed.
var zipfSamplers sync.Map // zipfKey -> *rand.Zipf

func zipfFor(rng *rand.Rand, n uint64, s float64) *rand.Zipf {
	k := zipfKey{rng: rng, n: n, s: s}
	if v, ok := zipfSamplers.Load(k); ok {
		return v.(*rand.Zipf)
	}
	zf := rand.NewZipf(rng, s, 1, n-1)
	if zf != nil {
		zipfSamplers.Store(k, zf)
	}
	return zf
}

// Next implements KeyDist. The underlying sampler is constructed once
// per rng (not per sample — rebuilding it per call dominated the
// generator's cost) and consumes the rng directly; safe because each
// worker owns its rng.
func (z Zipf) Next(rng *rand.Rand) uint64 {
	zf := zipfFor(rng, z.N, z.S)
	if zf == nil {
		return 0
	}
	return zf.Uint64()
}

// Keys implements KeyDist.
func (z Zipf) Keys() uint64 { return z.N }

// Name implements KeyDist.
func (z Zipf) Name() string { return fmt.Sprintf("zipf(s=%g)", z.S) }

// Production approximates one of the four Nutanix metadata workloads
// (paper §5.2). Figure 7 shows two families of popularity curves — W2 and
// W4 have "more skew", W1 and W3 "less skew" — and Figure 8 gives the key
// and update counts. We model each as a three-segment staircase (hot /
// warm / cold), which matches the plateaus visible in Figure 7's
// log-scale curves.
type Production struct {
	ID      int // 1..4
	N       uint64
	Updates uint64
	segs    [3]segment
}

type segment struct {
	keyFrac, accFrac float64
}

// ProductionWorkload returns workload id (1..4) scaled down by scale
// (paper sizes divided by scale; scale 1 = full size). The paper's Figure
// 8 sizes: W1 40M keys / 250M updates, W2 9M/75M, W3 30M/200M, W4 8M/75M.
func ProductionWorkload(id int, scale uint64) (Production, error) {
	if scale == 0 {
		scale = 1
	}
	var p Production
	p.ID = id
	switch id {
	case 1: // less skew
		p.N, p.Updates = 40_000_000, 250_000_000
		p.segs = [3]segment{{0.05, 0.35}, {0.25, 0.40}, {0.70, 0.25}}
	case 2: // more skew
		p.N, p.Updates = 9_000_000, 75_000_000
		p.segs = [3]segment{{0.01, 0.70}, {0.09, 0.20}, {0.90, 0.10}}
	case 3: // less skew
		p.N, p.Updates = 30_000_000, 200_000_000
		p.segs = [3]segment{{0.08, 0.40}, {0.30, 0.35}, {0.62, 0.25}}
	case 4: // more skew
		p.N, p.Updates = 8_000_000, 75_000_000
		p.segs = [3]segment{{0.02, 0.75}, {0.10, 0.15}, {0.88, 0.10}}
	default:
		return p, fmt.Errorf("workload: unknown production workload %d", id)
	}
	p.N /= scale
	p.Updates /= scale
	if p.N == 0 {
		p.N = 1
	}
	return p, nil
}

// Next implements KeyDist.
func (p Production) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	var keyStart float64
	for _, s := range p.segs {
		if u < s.accFrac {
			lo := uint64(keyStart * float64(p.N))
			n := uint64(s.keyFrac * float64(p.N))
			if n == 0 {
				n = 1
			}
			return lo + uint64(rng.Int63n(int64(n)))
		}
		u -= s.accFrac
		keyStart += s.keyFrac
	}
	return uint64(rng.Int63n(int64(p.N)))
}

// Keys implements KeyDist.
func (p Production) Keys() uint64 { return p.N }

// Name implements KeyDist.
func (p Production) Name() string { return fmt.Sprintf("production-w%d", p.ID) }

// AccessProbability returns the per-key access probability for Figure 7.
func (p Production) AccessProbability(i uint64) float64 {
	var keyStart float64
	for _, s := range p.segs {
		n := s.keyFrac * float64(p.N)
		if float64(i) < (keyStart+s.keyFrac)*float64(p.N) {
			return s.accFrac / n
		}
		keyStart += s.keyFrac
	}
	return 0
}

// Op is one operation to apply to the store.
type Op struct {
	Read   bool
	Delete bool
	Key    []byte
	Value  []byte
}

// Mix generates a stream of operations over keys drawn from Dist: reads
// with probability ReadFraction, deletes with probability DeleteFraction,
// otherwise updates — the paper's benchmark drivers perform "searching,
// inserting or deleting keys" (§5.1). Keys are KeySize bytes (big-endian
// index, zero padded) and values ValueSize bytes, matching the paper's
// 8 B keys and 255 B values by default.
type Mix struct {
	Dist           KeyDist
	ReadFraction   float64
	DeleteFraction float64
	KeySize        int
	ValueSize      int
}

// DefaultSizes fills the paper's record shape.
func (m Mix) withDefaults() Mix {
	if m.KeySize <= 0 {
		m.KeySize = 8
	}
	if m.ValueSize <= 0 {
		m.ValueSize = 255
	}
	return m
}

// Stream is a per-worker deterministic operation source.
type Stream struct {
	mix  Mix
	rng  *rand.Rand
	kbuf []byte
	vbuf []byte
}

// NewStream returns a stream seeded with seed.
func (m Mix) NewStream(seed int64) *Stream {
	mm := m.withDefaults()
	s := &Stream{
		mix:  mm,
		rng:  rand.New(rand.NewSource(seed)),
		kbuf: make([]byte, mm.KeySize),
		vbuf: make([]byte, mm.ValueSize),
	}
	for i := range s.vbuf {
		s.vbuf[i] = byte('a' + i%26)
	}
	return s
}

// Next produces the next operation. The returned key/value buffers are
// reused across calls; the store copies what it keeps.
func (s *Stream) Next() Op {
	idx := s.mix.Dist.Next(s.rng)
	EncodeKey(s.kbuf, idx)
	op := Op{Key: s.kbuf}
	u := s.rng.Float64()
	switch {
	case u < s.mix.ReadFraction:
		op.Read = true
		return op
	case u < s.mix.ReadFraction+s.mix.DeleteFraction:
		op.Delete = true
		return op
	}
	// Stamp a few bytes so updated values differ.
	binary.BigEndian.PutUint64(s.vbuf[:8], s.rng.Uint64())
	op.Value = s.vbuf
	return op
}

// EncodeKey writes key index idx into buf (big endian in the last 8
// bytes, preserving numeric order lexicographically).
func EncodeKey(buf []byte, idx uint64) {
	for i := range buf {
		buf[i] = 0
	}
	if len(buf) >= 8 {
		binary.BigEndian.PutUint64(buf[len(buf)-8:], idx)
	} else {
		tmp := make([]byte, 8)
		binary.BigEndian.PutUint64(tmp, idx)
		copy(buf, tmp[8-len(buf):])
	}
}
