package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Record shape: 8-byte keys, 255-byte values (paper §5.1's record size).
const (
	keyLen    = 8
	valLen    = 255
	userBytes = keyLen + valLen // bytes one put submits
)

// workers is the number of load generators (= cores). Worker w owns the
// key indexes congruent to w modulo workers: it alone writes and reads
// them, so the oracle knows the exact value every read must return
// without any synchronisation.
const workers = 2

// An op packs a key index with the operation kind in the top bit.
const opGet = 1 << 31

func putKey(dst []byte, idx uint32) { binary.BigEndian.PutUint64(dst, uint64(idx)) }

// oracle holds the expected state: a version per key. The value of
// (idx, version) is regenerated on demand from a seed-derived pad, so
// checking a read costs a header compare and one bytes.Equal.
type oracle struct {
	ver []uint32
	pad []byte
}

const padLen = 1 << 16

func newOracle(keys int, seed int64) *oracle {
	o := &oracle{ver: make([]uint32, keys), pad: make([]byte, padLen+valLen)}
	rand.New(rand.NewSource(seed)).Read(o.pad)
	return o
}

// fill writes the value of (idx, ver) into dst, which has valLen bytes.
func (o *oracle) fill(dst []byte, idx, ver uint32) {
	binary.LittleEndian.PutUint32(dst[0:4], idx)
	binary.LittleEndian.PutUint32(dst[4:8], ver)
	off := (idx*2654435761 + ver*40503) % padLen
	copy(dst[8:], o.pad[off:off+valLen-8])
}

// next bumps idx's version and writes the new value into dst.
func (o *oracle) next(dst []byte, idx uint32) {
	o.ver[idx]++
	o.fill(dst, idx, o.ver[idx])
}

// matches reports whether got is version ver of idx's value.
func (o *oracle) matches(got []byte, idx, ver uint32) bool {
	if len(got) != valLen {
		return false
	}
	if binary.LittleEndian.Uint32(got[0:4]) != idx || binary.LittleEndian.Uint32(got[4:8]) != ver {
		return false
	}
	off := (idx*2654435761 + ver*40503) % padLen
	return bytes.Equal(got[8:], o.pad[off:off+valLen-8])
}

// dist chooses which of a worker's keys an operation touches.
type dist struct {
	kind      string  // "uniform", "hotcold" or "zipf"
	hotKeys   float64 // hotcold: share of keys that are hot
	hotAccess float64 // hotcold: share of accesses that go to them
	zipfS     float64 // zipf: exponent
}

// scatter is the multiplier of the bijection that spreads Zipf ranks over
// the key space so that popular keys do not share blocks. It is prime and
// larger than any per-worker key count, hence coprime to it.
const scatter = 2654435761

// picker draws one of a worker's per key slots from a dist.
func (d dist) picker(rng *rand.Rand, per uint64) func() uint64 {
	switch d.kind {
	case "hotcold":
		hot := max(uint64(float64(per)*d.hotKeys), 1)
		return func() uint64 {
			if rng.Float64() < d.hotAccess {
				return uint64(rng.Int63n(int64(hot)))
			}
			return hot + uint64(rng.Int63n(int64(per-hot)))
		}
	case "zipf":
		z := rand.NewZipf(rng, d.zipfS, 1, per-1)
		return func() uint64 { return (z.Uint64()*scatter + 12345) % per }
	}
	return func() uint64 { return uint64(rng.Int63n(int64(per))) }
}

// genOps returns n operations for worker w over keys keys. Each is a get
// with probability getShare and touches one of the worker's own indexes,
// drawn from gets or puts according to its kind.
func genOps(rng *rand.Rand, w, keys, n int, gets, puts dist, getShare float64) []uint32 {
	per := uint64(keys / workers)
	pickGet, pickPut := gets.picker(rng, per), puts.picker(rng, per)
	ops := make([]uint32, n)
	for i := range ops {
		if rng.Float64() < getShare {
			ops[i] = uint32(pickGet())*workers + uint32(w) | opGet
		} else {
			ops[i] = uint32(pickPut())*workers + uint32(w)
		}
	}
	return ops
}
