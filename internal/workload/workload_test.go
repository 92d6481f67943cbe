package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformCoversKeySpace(t *testing.T) {
	d := Uniform{N: 100}
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		k := d.Next(rng)
		if k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) < 95 {
		t.Fatalf("uniform covered only %d/100 keys", len(seen))
	}
}

func TestHotColdSkew(t *testing.T) {
	d := HotCold{N: 10000, HotFraction: 0.01, HotAccess: 0.99}
	rng := rand.New(rand.NewSource(2))
	hot := 0
	n := 100000
	for i := 0; i < n; i++ {
		if d.Next(rng) < 100 { // first 1% of key space
			hot++
		}
	}
	frac := float64(hot) / float64(n)
	if math.Abs(frac-0.99) > 0.01 {
		t.Fatalf("hot access fraction = %.3f, want ≈0.99", frac)
	}
}

func TestHotColdAccessProbabilitySumsToOne(t *testing.T) {
	d := HotCold{N: 1000, HotFraction: 0.20, HotAccess: 0.80}
	var sum float64
	for i := uint64(0); i < d.N; i++ {
		sum += d.AccessProbability(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %.6f", sum)
	}
	// Hot keys strictly more popular than cold.
	if d.AccessProbability(0) <= d.AccessProbability(999) {
		t.Fatal("hot key not more popular than cold key")
	}
}

func TestHotColdEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Tiny hot fraction rounds up to at least one hot key.
	d := HotCold{N: 10, HotFraction: 0.001, HotAccess: 0.99}
	for i := 0; i < 100; i++ {
		if k := d.Next(rng); k >= 10 {
			t.Fatalf("key %d out of range", k)
		}
	}
	// All-hot degenerates gracefully.
	d = HotCold{N: 10, HotFraction: 1.0, HotAccess: 0.5}
	for i := 0; i < 100; i++ {
		if k := d.Next(rng); k >= 10 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestZipfInRangeAndSkewed(t *testing.T) {
	d := Zipf{N: 1000, S: 1.2}
	rng := rand.New(rand.NewSource(4))
	low := 0
	for i := 0; i < 10000; i++ {
		k := d.Next(rng)
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		if k < 10 {
			low++
		}
	}
	// Zipf concentrates mass at small ranks.
	if low < 2000 {
		t.Fatalf("only %d/10000 draws in the top 10 ranks; not skewed", low)
	}
}

func TestProductionWorkloads(t *testing.T) {
	for id := 1; id <= 4; id++ {
		p, err := ProductionWorkload(id, 1000)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(id)))
		for i := 0; i < 10000; i++ {
			if k := p.Next(rng); k >= p.Keys() {
				t.Fatalf("W%d key %d out of range %d", id, k, p.Keys())
			}
		}
		if p.Updates <= p.Keys() {
			t.Fatalf("W%d updates (%d) not greater than keys (%d)", id, p.Updates, p.Keys())
		}
		// Probability curve is (weakly) decreasing in rank.
		var prev = math.Inf(1)
		for _, frac := range []float64{0.001, 0.05, 0.3, 0.8} {
			pr := p.AccessProbability(uint64(frac * float64(p.Keys())))
			if pr > prev+1e-12 {
				t.Fatalf("W%d access probability increases with rank", id)
			}
			prev = pr
		}
	}
	if _, err := ProductionWorkload(5, 1); err == nil {
		t.Fatal("unknown workload id accepted")
	}
}

// TestProductionSkewOrdering checks the Figure 7 family split: W2 and W4
// concentrate more mass on their hottest keys than W1 and W3.
func TestProductionSkewOrdering(t *testing.T) {
	top := func(id int) float64 {
		p, _ := ProductionWorkload(id, 1000)
		rng := rand.New(rand.NewSource(9))
		hits := 0
		cut := uint64(float64(p.Keys()) * 0.02)
		if cut == 0 {
			cut = 1
		}
		for i := 0; i < 50000; i++ {
			if p.Next(rng) < cut {
				hits++
			}
		}
		return float64(hits) / 50000
	}
	w1, w2, w3, w4 := top(1), top(2), top(3), top(4)
	if !(w2 > w1 && w2 > w3 && w4 > w1 && w4 > w3) {
		t.Fatalf("skew ordering violated: top-2%% mass W1=%.2f W2=%.2f W3=%.2f W4=%.2f", w1, w2, w3, w4)
	}
}

func TestStreamDeterministic(t *testing.T) {
	mix := Mix{Dist: HotCold{N: 1000, HotFraction: 0.1, HotAccess: 0.9}, ReadFraction: 0.3}
	a, b := mix.NewStream(5), mix.NewStream(5)
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Read != ob.Read || !bytes.Equal(oa.Key, ob.Key) {
			t.Fatalf("streams diverged at op %d", i)
		}
	}
	c := mix.NewStream(6)
	diff := 0
	for i := 0; i < 1000; i++ {
		if !bytes.Equal(a.Next().Key, c.Next().Key) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestStreamReadFraction(t *testing.T) {
	mix := Mix{Dist: Uniform{N: 100}, ReadFraction: 0.5}
	s := mix.NewStream(1)
	reads := 0
	for i := 0; i < 10000; i++ {
		if s.Next().Read {
			reads++
		}
	}
	if reads < 4700 || reads > 5300 {
		t.Fatalf("reads = %d/10000, want ≈5000", reads)
	}
	// Pure-write stream.
	s = Mix{Dist: Uniform{N: 100}}.NewStream(1)
	for i := 0; i < 100; i++ {
		op := s.Next()
		if op.Read {
			t.Fatal("zero read fraction produced a read")
		}
		if len(op.Key) != 8 || len(op.Value) != 255 {
			t.Fatalf("default sizes = %d/%d, want 8/255", len(op.Key), len(op.Value))
		}
	}
}

func TestStreamDeleteFraction(t *testing.T) {
	mix := Mix{Dist: Uniform{N: 100}, ReadFraction: 0.3, DeleteFraction: 0.2}
	s := mix.NewStream(1)
	var reads, deletes, writes int
	for i := 0; i < 10000; i++ {
		op := s.Next()
		switch {
		case op.Read:
			reads++
		case op.Delete:
			deletes++
		default:
			writes++
			if op.Value == nil {
				t.Fatal("write op without value")
			}
		}
	}
	if reads < 2700 || reads > 3300 {
		t.Fatalf("reads = %d, want ≈3000", reads)
	}
	if deletes < 1700 || deletes > 2300 {
		t.Fatalf("deletes = %d, want ≈2000", deletes)
	}
	if writes < 4700 || writes > 5300 {
		t.Fatalf("writes = %d, want ≈5000", writes)
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	a, b := make([]byte, 8), make([]byte, 8)
	prev := make([]byte, 8)
	for _, idx := range []uint64{0, 1, 255, 256, 1 << 20, 1 << 40} {
		EncodeKey(a, idx)
		if bytes.Compare(prev, a) >= 0 && idx > 0 {
			t.Fatalf("encoding not order preserving at %d", idx)
		}
		copy(prev, a)
	}
	// Short keys truncate from the high bytes.
	short := make([]byte, 4)
	EncodeKey(short, 0x01020304)
	EncodeKey(b, 0x01020304)
	if !bytes.Equal(short, b[4:]) {
		t.Fatalf("short encoding = %x, want %x", short, b[4:])
	}
}

// TestQuickEncodeKeyMonotone: EncodeKey preserves numeric order for
// arbitrary pairs.
func TestQuickEncodeKeyMonotone(t *testing.T) {
	check := func(x, y uint64) bool {
		a, b := make([]byte, 8), make([]byte, 8)
		EncodeKey(a, x)
		EncodeKey(b, y)
		switch {
		case x < y:
			return bytes.Compare(a, b) < 0
		case x > y:
			return bytes.Compare(a, b) > 0
		default:
			return bytes.Equal(a, b)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestZipfReproducible: the sampler cache must not break determinism —
// two streams with the same seed produce identical draws, and the same
// rng reused across two Zipf values keeps each (N, S) stream stable.
func TestZipfReproducible(t *testing.T) {
	d := Zipf{N: 10000, S: 1.3}
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if d.Next(a) != d.Next(b) {
			t.Fatalf("identically seeded Zipf streams diverged at draw %d", i)
		}
	}
}

// BenchmarkZipfNext measures the per-sample cost with the cached
// sampler; BenchmarkZipfNextRebuild is the old behaviour (a fresh
// rand.NewZipf per draw) kept inline for comparison.
func BenchmarkZipfNext(b *testing.B) {
	d := Zipf{N: 1 << 20, S: 1.2}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Next(rng)
	}
}

func BenchmarkZipfNextRebuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rand.NewZipf(rng, 1.2, 1, 1<<20-1).Uint64()
	}
}
