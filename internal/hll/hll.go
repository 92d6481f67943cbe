// Package hll implements the HyperLogLog cardinality estimator used by
// TRIAD-DISK (paper §4.2) to estimate the key overlap between L0 files.
//
// This is the dense HyperLogLog of Flajolet et al. with the empirical bias
// corrections from the original paper (small-range linear counting and the
// large-range correction). A sketch with precision p uses 2^p one-byte
// registers; TRIAD uses 4 KB sketches (p = 12), which gives a standard
// error of 1.04/sqrt(4096) ≈ 1.6% — far more accurate than the 0.4 overlap
// threshold decision requires. Sketches live in memory only, on each L0
// table's manifest.FileMeta: the engine (internal/lsm) adds every key it
// writes to an L0 table to the table's sketch, and rebuilds a recovered
// L0 table's from its keys.
package hll

import (
	"fmt"
	"math"
	"math/bits"
)

// DefaultPrecision matches the paper's 4 KB-per-file sketch.
const DefaultPrecision = 12

// Sketch is a dense HyperLogLog sketch. The zero value is not usable;
// use New.
type Sketch struct {
	p         uint8
	registers []uint8
	// count mirrors the number of Add calls, used for the overlap-ratio
	// denominator (the paper tracks per-file key counts alongside the HLL).
	count uint64
}

// New returns an empty sketch with the given precision (4..16).
func New(precision uint8) (*Sketch, error) {
	if precision < 4 || precision > 16 {
		return nil, fmt.Errorf("hll: precision %d out of range [4,16]", precision)
	}
	return &Sketch{p: precision, registers: make([]uint8, 1<<precision)}, nil
}

// MustNew is New for known-good precisions.
func MustNew(precision uint8) *Sketch {
	s, err := New(precision)
	if err != nil {
		panic(err)
	}
	return s
}

// fnv64a hashes b; we then mix with a 64-bit finalizer so that sequential
// keys (common in workloads) spread over the register space.
func hash(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Add observes one element.
func (s *Sketch) Add(b []byte) {
	s.count++
	h := hash(b)
	idx := h >> (64 - s.p)
	rest := h<<s.p | 1<<(uint(s.p)-1) // avoid zero tail
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > s.registers[idx] {
		s.registers[idx] = rank
	}
}

// Count reports the number of Add calls (with multiplicity).
func (s *Sketch) Count() uint64 { return s.count }

// Estimate returns the estimated number of distinct elements added.
func (s *Sketch) Estimate() uint64 {
	m := float64(len(s.registers))
	var sum float64
	zeros := 0
	for _, r := range s.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := alphaM(len(s.registers))
	e := alpha * m * m / sum
	switch {
	case e <= 2.5*m && zeros > 0:
		// Small-range correction: linear counting.
		e = m * math.Log(m/float64(zeros))
	case e > (1.0/30.0)*math.Pow(2, 64):
		e = -math.Pow(2, 64) * math.Log(1-e/math.Pow(2, 64))
	}
	return uint64(e + 0.5)
}

func alphaM(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Merge folds other into s (register-wise max). Both sketches must share a
// precision.
func (s *Sketch) Merge(other *Sketch) error {
	if s.p != other.p {
		return fmt.Errorf("hll: precision mismatch %d != %d", s.p, other.p)
	}
	for i, r := range other.registers {
		if r > s.registers[i] {
			s.registers[i] = r
		}
	}
	s.count += other.count
	return nil
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{p: s.p, registers: make([]uint8, len(s.registers)), count: s.count}
	copy(c.registers, s.registers)
	return c
}

// OverlapRatio implements the paper's metric over n sketches:
//
//	1 - UniqueKeys(f1..fn) / sum(Keys(fi))
//
// where UniqueKeys is the merged estimate and Keys(fi) is the per-file
// distinct-key estimate. It returns 0 for fewer than two sketches (a single
// file cannot overlap with itself).
func OverlapRatio(sketches []*Sketch) float64 {
	if len(sketches) < 2 {
		return 0
	}
	merged := sketches[0].Clone()
	total := float64(sketches[0].Estimate())
	for _, s := range sketches[1:] {
		// Precision mismatch cannot occur inside one engine; guard anyway.
		if err := merged.Merge(s); err != nil {
			return 0
		}
		total += float64(s.Estimate())
	}
	if total == 0 {
		return 0
	}
	r := 1 - float64(merged.Estimate())/total
	if r < 0 {
		return 0
	}
	return r
}
