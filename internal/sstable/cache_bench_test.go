package sstable

import (
	"testing"
)

// BenchmarkBlockCacheParallelGet measures hot-path Get throughput under
// parallelism (RunParallel scales goroutines with GOMAXPROCS). Every
// lookup hits (the working set fits), so the benchmark isolates lock
// contention on the recency update, which the lock striping spreads
// across segments. Compare:
//
//	go test -run XXX -bench ParallelGet -cpu 1,4,8 ./internal/sstable/
func BenchmarkBlockCacheParallelGet(b *testing.B) {
	const blocks = 4096 // 16 MiB resident, fits the cache
	h := NewCache(64 << 20).NewHandle()
	blk := make([]byte, 4<<10)
	for i := uint64(0); i < blocks; i++ {
		h.Put(1, i<<12, blk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var x uint64 = 0x9E3779B97F4A7C15
		for pb.Next() {
			x = x*6364136223846793005 + 1
			off := ((x >> 33) % blocks) << 12
			if h.Get(1, off) == nil {
				h.Put(1, off, blk)
			}
		}
	})
}

// BenchmarkBlockCachePutEvict measures the insert path under constant
// eviction pressure: a cache one-quarter the size of the key set, so
// every Put displaces a block or is refused residency.
func BenchmarkBlockCachePutEvict(b *testing.B) {
	const span = 4096
	h := NewCache(4 << 20).NewHandle()
	blk := make([]byte, 4<<10)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var x uint64 = 0xD1B54A32D192ED03
		for pb.Next() {
			x = x*6364136223846793005 + 1
			h.Put(2, ((x>>33)%span)<<12, blk)
		}
	})
}
