package shard

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Partitioner maps a key to the shard that owns it. Implementations must
// be deterministic and stable across process restarts: a store written
// with one partitioner (and shard count) must be reopened with the same
// one, or keys become invisible on the wrong shard. Open persists the
// partitioner's Name in the store metadata and validates it on reopen,
// so a mismatch fails fast instead of misrouting.
type Partitioner interface {
	// Partition returns the owning shard index for key, in [0, n).
	// n is always >= 1.
	Partition(key []byte, n int) int
	// Ranges answers the scan-planning ownership query: which of n
	// shards may hold keys of [start, limit) (nil bounds are unbounded),
	// in visiting order, and whether that order is key order — i.e.
	// every listed shard owns a single contiguous key slice and the
	// slices ascend, so a scan can concatenate the per-shard iterators
	// instead of k-way merging them. Hash partitioners return every
	// shard with ordered == false (unless n == 1, where any order is
	// key order).
	Ranges(start, limit []byte, n int) (shards []int, ordered bool)
	// Name identifies the partitioner in Stats output and in the
	// durable store metadata; it must encode everything routing depends
	// on (the Range partitioner's Name includes its split keys), so
	// equal names imply identical routing.
	Name() string
}

// ParsePartitioner maps a partitioner name and split keys, as a caller's
// configuration spells them, onto a Partitioner: "hash" is FNV, "range"
// is NewRange(splits...), and "" is range when splits are given and
// otherwise nil — adopt the store's recorded partitioner (FNV for a new
// store).
func ParsePartitioner(name string, splits [][]byte) (Partitioner, error) {
	switch name {
	case "":
		if len(splits) == 0 {
			return nil, nil
		}
		return NewRange(splits...)
	case "hash":
		return FNV{}, nil
	case "range":
		if len(splits) == 0 {
			return nil, errors.New(`shard: partitioner "range" requires split keys (shards-1 ascending keys)`)
		}
		return NewRange(splits...)
	default:
		return nil, fmt.Errorf(`shard: unknown partitioner %q (want "hash" or "range")`, name)
	}
}

// FNV hash-partitions keys with 64-bit FNV-1a. It is the default: cheap
// (no allocation, one pass over the key), uniform enough that shards stay
// balanced under both sequential and random keyspaces, and independent of
// key length patterns.
type FNV struct{}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Partition implements Partitioner.
func (FNV) Partition(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	// Avalanche finalizer (murmur3): the modulo below only sees the low
	// bits, and raw FNV low bits retain structure from trailing key
	// bytes (sequential key suffixes would stripe across shards).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

// Ranges implements Partitioner: a hashed range scatters over every
// shard, so all of them may hold keys of [start, limit) and no visiting
// order is key order (except the trivial single-shard store).
func (FNV) Ranges(start, limit []byte, n int) ([]int, bool) {
	if emptyRange(start, limit) {
		return nil, true
	}
	shards := make([]int, n)
	for i := range shards {
		shards[i] = i
	}
	return shards, n <= 1
}

// Name implements Partitioner.
func (FNV) Name() string { return "fnv" }

// Range partitions the keyspace by sorted split keys: with splits
// s0 < s1 < ... < s(m-1), shard 0 owns keys below s0, shard i owns
// [s(i-1), si), and shard m owns keys at or above s(m-1) — m+1 shards
// total. Contiguous key ranges stay on one shard, so range scans are
// shard-local (no cross-shard merge) at the price of balance being the
// caller's problem: splits must match the keyspace, or shards skew.
type Range struct {
	splits [][]byte
}

// NewRange builds a Range partitioner from strictly ascending, non-empty
// split keys. len(splits)+1 shards are implied; Open rejects a Range
// whose implied count differs from Options.Shards.
func NewRange(splits ...[]byte) (*Range, error) {
	if len(splits) == 0 {
		return nil, fmt.Errorf("shard: range partitioner needs at least one split key")
	}
	cp := make([][]byte, len(splits))
	for i, s := range splits {
		if len(s) == 0 {
			return nil, fmt.Errorf("shard: range split %d is empty", i)
		}
		if i > 0 && bytes.Compare(splits[i-1], s) >= 0 {
			return nil, fmt.Errorf("shard: range splits not strictly ascending at %d (%q >= %q)",
				i, splits[i-1], s)
		}
		cp[i] = append([]byte(nil), s...)
	}
	return &Range{splits: cp}, nil
}

// NumShards reports the shard count the splits imply (len(splits)+1).
func (r *Range) NumShards() int { return len(r.splits) + 1 }

// Splits returns a copy of the split keys, ascending.
func (r *Range) Splits() [][]byte {
	out := make([][]byte, len(r.splits))
	for i, s := range r.splits {
		out[i] = append([]byte(nil), s...)
	}
	return out
}

// Partition implements Partitioner: the owning shard is the number of
// splits at or below key (binary search), clamped into [0, n) so a
// misconfigured n cannot index out of range (Open validates n ==
// NumShards up front).
func (r *Range) Partition(key []byte, n int) int {
	idx := sort.Search(len(r.splits), func(i int) bool {
		return bytes.Compare(key, r.splits[i]) < 0
	})
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Ranges implements Partitioner: the shards whose slices intersect
// [start, limit), ascending. The order is key order by construction, so
// scans concatenate instead of merging. A limit equal to a split key
// excludes the shard that starts at it.
func (r *Range) Ranges(start, limit []byte, n int) ([]int, bool) {
	if emptyRange(start, limit) {
		return nil, true
	}
	lo := 0
	if start != nil {
		lo = r.Partition(start, n)
	}
	hi := n - 1
	if limit != nil {
		// Keys of the scan are strictly below limit, so the last
		// relevant shard is the one owning the keys just under it:
		// the number of splits strictly below limit.
		h := sort.Search(len(r.splits), func(i int) bool {
			return bytes.Compare(limit, r.splits[i]) <= 0
		})
		if h > n-1 {
			h = n - 1
		}
		hi = h
	}
	shards := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		shards = append(shards, i)
	}
	return shards, true
}

// Name implements Partitioner. The split keys are hex-encoded into the
// name, so two Range partitioners share a name exactly when they route
// identically — the property the store-metadata validation relies on.
func (r *Range) Name() string {
	enc := make([]string, len(r.splits))
	for i, s := range r.splits {
		enc[i] = hex.EncodeToString(s)
	}
	return "range(" + strings.Join(enc, ",") + ")"
}

// parseRangeName reconstructs a Range partitioner from its Name(),
// used when reopening a store whose metadata recorded one.
func parseRangeName(name string) (*Range, error) {
	body, ok := strings.CutPrefix(name, "range(")
	if !ok || !strings.HasSuffix(body, ")") {
		return nil, fmt.Errorf("shard: %q is not a range partitioner name", name)
	}
	body = strings.TrimSuffix(body, ")")
	parts := strings.Split(body, ",")
	splits := make([][]byte, len(parts))
	for i, p := range parts {
		b, err := hex.DecodeString(p)
		if err != nil {
			return nil, fmt.Errorf("shard: bad split %d in %q: %w", i, name, err)
		}
		splits[i] = b
	}
	return NewRange(splits...)
}

// emptyRange reports whether [start, limit) can hold no key.
func emptyRange(start, limit []byte) bool {
	return start != nil && limit != nil && bytes.Compare(start, limit) >= 0
}
