package shard

// fnvName names the one routing in Stats output and in the durable STORE
// record; a record naming anything else is refused on open.
const fnvName = "fnv"

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv returns the shard, of n, that owns key: 64-bit FNV-1a over the key.
// It is cheap (no allocation, one pass over the key), uniform enough that
// shards stay balanced under both sequential and random keyspaces, and
// stable across processes, which the STORE record relies on.
func fnv(key []byte, n int) int {
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
