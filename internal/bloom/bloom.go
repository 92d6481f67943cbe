// Package bloom implements the Bloom filter attached to every SSTable so
// that point lookups can skip tables that cannot contain a key. RocksDB
// (the paper's substrate) attaches the same structure; reproducing it keeps
// the read-amplification comparison honest.
package bloom

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
)

// Filter is an immutable Bloom filter built by a Builder.
type Filter struct {
	bits  []byte
	k     uint32 // number of probes
	nBits uint64
}

// Builder accumulates keys and produces a Filter. Its hash buffer comes
// from a pool on the first Add and goes back to it at Build.
type Builder struct {
	hashes []uint64
}

// hashBufs holds the hash buffers of builders that have built: each one
// has grown to a table's keys, which the next table reuses.
var hashBufs sync.Pool // of *[]uint64

// Add records a key.
func (b *Builder) Add(key []byte) {
	if b.hashes == nil {
		if buf, _ := hashBufs.Get().(*[]uint64); buf != nil {
			b.hashes = (*buf)[:0]
		}
	}
	b.hashes = append(b.hashes, bloomHash(key))
}

// N reports the number of keys added.
func (b *Builder) N() int { return len(b.hashes) }

// Build constructs a filter with the given bits budget per key (typically
// 10, giving ~1% false positives) and empties the builder.
func (b *Builder) Build(bitsPerKey int) *Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	n := len(b.hashes)
	if n == 0 {
		n = 1
	}
	nBits := uint64(n * bitsPerKey)
	if nBits < 64 {
		nBits = 64
	}
	k := uint32(float64(bitsPerKey) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	f := &Filter{bits: make([]byte, (nBits+7)/8), k: k}
	f.nBits = uint64(len(f.bits)) * 8
	for _, h := range b.hashes {
		f.insert(h)
	}
	if cap(b.hashes) > 0 {
		buf := b.hashes[:0]
		hashBufs.Put(&buf)
	}
	b.hashes = nil
	return f
}

// double hashing: g_i(x) = h1 + i*h2.
func (f *Filter) insert(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)
	for i := uint32(0); i < f.k; i++ {
		pos := uint64(h1+i*h2) % f.nBits
		f.bits[pos/8] |= 1 << (pos % 8)
	}
}

// MayContain reports whether the key may have been added. False means
// definitely absent.
func (f *Filter) MayContain(key []byte) bool {
	h := bloomHash(key)
	h1, h2 := uint32(h), uint32(h>>32)
	for i := uint32(0); i < f.k; i++ {
		pos := uint64(h1+i*h2) % f.nBits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// Marshal serializes the filter: 4 bytes k, then the bit array.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 4+len(f.bits))
	binary.LittleEndian.PutUint32(out[:4], f.k)
	copy(out[4:], f.bits)
	return out
}

// Unmarshal parses a filter produced by Marshal.
func Unmarshal(b []byte) (*Filter, error) {
	if len(b) < 5 {
		return nil, errors.New("bloom: short buffer")
	}
	f := &Filter{k: binary.LittleEndian.Uint32(b[:4]), bits: append([]byte(nil), b[4:]...)}
	if f.k == 0 || f.k > 30 {
		return nil, errors.New("bloom: corrupt probe count")
	}
	f.nBits = uint64(len(f.bits)) * 8
	return f, nil
}

func bloomHash(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
