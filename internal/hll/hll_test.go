package hll

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestPrecisionBounds(t *testing.T) {
	for _, p := range []uint8{0, 1, 3, 17, 255} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) succeeded, want error", p)
		}
	}
	for _, p := range []uint8{4, 12, 16} {
		if _, err := New(p); err != nil {
			t.Errorf("New(%d) failed: %v", p, err)
		}
	}
}

func TestEmptyEstimate(t *testing.T) {
	s := MustNew(12)
	if got := s.Estimate(); got != 0 {
		t.Fatalf("empty estimate = %d, want 0", got)
	}
	if s.Count() != 0 {
		t.Fatalf("empty count = %d, want 0", s.Count())
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// Standard error for p=12 is ~1.6%; allow 5% at these cardinalities.
	for _, n := range []int{100, 1000, 10000, 100000} {
		s := MustNew(12)
		for i := 0; i < n; i++ {
			s.Add([]byte(fmt.Sprintf("key-%d", i)))
		}
		got := float64(s.Estimate())
		if relErr := math.Abs(got-float64(n)) / float64(n); relErr > 0.05 {
			t.Errorf("n=%d: estimate %0.f, relative error %.3f > 0.05", n, got, relErr)
		}
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	s := MustNew(12)
	for round := 0; round < 10; round++ {
		for i := 0; i < 1000; i++ {
			s.Add([]byte(fmt.Sprintf("key-%d", i)))
		}
	}
	got := float64(s.Estimate())
	if got < 900 || got > 1100 {
		t.Fatalf("estimate with duplicates = %.0f, want ≈1000", got)
	}
	if s.Count() != 10000 {
		t.Fatalf("count = %d, want 10000 (with multiplicity)", s.Count())
	}
}

func TestMerge(t *testing.T) {
	a, b := MustNew(12), MustNew(12)
	for i := 0; i < 5000; i++ {
		a.Add([]byte(fmt.Sprintf("a-%d", i)))
		b.Add([]byte(fmt.Sprintf("b-%d", i)))
	}
	// Shared keys.
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("shared-%d", i))
		a.Add(k)
		b.Add(k)
	}
	m := a.Clone()
	if err := m.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := float64(m.Estimate())
	want := 12000.0
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("merged estimate = %.0f, want ≈%.0f", got, want)
	}
}

func TestMergePrecisionMismatch(t *testing.T) {
	a, b := MustNew(12), MustNew(10)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge with precision mismatch succeeded")
	}
}

func TestOverlapRatio(t *testing.T) {
	// Disjoint files: ratio ≈ 0.
	a, b := MustNew(12), MustNew(12)
	for i := 0; i < 10000; i++ {
		a.Add([]byte(fmt.Sprintf("a-%d", i)))
		b.Add([]byte(fmt.Sprintf("b-%d", i)))
	}
	if r := OverlapRatio([]*Sketch{a, b}); r > 0.05 {
		t.Errorf("disjoint overlap ratio = %.3f, want ≈0", r)
	}
	// Identical files: ratio ≈ 0.5 for two files (unique = n, total = 2n).
	c, d := MustNew(12), MustNew(12)
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("k-%d", i))
		c.Add(k)
		d.Add(k)
	}
	if r := OverlapRatio([]*Sketch{c, d}); math.Abs(r-0.5) > 0.05 {
		t.Errorf("identical overlap ratio = %.3f, want ≈0.5", r)
	}
	// Single file: defined as 0.
	if r := OverlapRatio([]*Sketch{a}); r != 0 {
		t.Errorf("single-file overlap ratio = %.3f, want 0", r)
	}
	if r := OverlapRatio(nil); r != 0 {
		t.Errorf("no-file overlap ratio = %.3f, want 0", r)
	}
}

// TestOverlapRatioPaperExample reproduces Figure 5's arithmetic: files
// {2,15,19} and {1,2,5,10},{11,12,19,20} → 1 - 9/11 ≈ 0.18; adding
// {1,10,13} → 1 - 10/14 ≈ 0.28. (Exact small sets; HLL is exact here up to
// estimator noise, which is zero at these cardinalities with p=12.)
func TestOverlapRatioPaperExample(t *testing.T) {
	mk := func(keys ...int) *Sketch {
		s := MustNew(12)
		for _, k := range keys {
			s.Add([]byte(fmt.Sprintf("%02d", k)))
		}
		return s
	}
	l0a := mk(2, 15, 19)
	l1a := mk(1, 2, 5, 10)
	l1b := mk(11, 12, 19, 20)
	r1 := OverlapRatio([]*Sketch{l0a, l1a, l1b})
	if math.Abs(r1-(1-9.0/11.0)) > 0.02 {
		t.Errorf("upper Figure 5 ratio = %.3f, want ≈0.18", r1)
	}
	l0b := mk(1, 10, 13)
	r2 := OverlapRatio([]*Sketch{l0a, l0b, l1a, l1b})
	if math.Abs(r2-(1-10.0/14.0)) > 0.02 {
		t.Errorf("lower Figure 5 ratio = %.3f, want ≈0.28", r2)
	}
	if r2 <= r1 {
		t.Errorf("adding an overlapping file lowered the ratio: %.3f <= %.3f", r2, r1)
	}
}

// TestQuickEstimateWithinBound: for random key sets the estimate stays
// within 10% of the true cardinality (way beyond 3 sigma for p=12).
func TestQuickEstimateWithinBound(t *testing.T) {
	check := func(seed uint32) bool {
		n := 1000 + int(seed%50000)
		s := MustNew(12)
		for i := 0; i < n; i++ {
			s.Add([]byte(fmt.Sprintf("%d-%d", seed, i)))
		}
		got := float64(s.Estimate())
		return math.Abs(got-float64(n))/float64(n) < 0.10
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := MustNew(12)
	key := []byte("benchmark-key-00000000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[len(key)-1] = byte(i)
		s.Add(key)
	}
}

func BenchmarkOverlapRatio6Files(b *testing.B) {
	sketches := make([]*Sketch, 6)
	for f := range sketches {
		sketches[f] = MustNew(12)
		for i := 0; i < 16000; i++ {
			sketches[f].Add([]byte(fmt.Sprintf("f%d-%d", f, i)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OverlapRatio(sketches)
	}
}
