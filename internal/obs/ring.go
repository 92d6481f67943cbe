package obs

// ring is the fixed-size window the journal, the slowlog and the tracer
// keep over their streams: a slot array plus the lifetime count of values
// pushed, overwriting oldest-first. It does no locking; each owner
// guards its ring with its own mutex.
type ring[T any] struct {
	slots []T
	n     uint64 // values ever pushed; slots[(n-1) % len] is the newest
}

func newRing[T any](size int) ring[T] { return ring[T]{slots: make([]T, size)} }

// push stores v over the oldest slot.
func (r *ring[T]) push(v T) {
	r.n++
	r.slots[(r.n-1)%uint64(len(r.slots))] = v
}

// dropped reports how many values have been overwritten.
func (r *ring[T]) dropped() uint64 {
	if size := uint64(len(r.slots)); r.n > size {
		return r.n - size
	}
	return 0
}

// newest returns up to max retained values pushed after the since-th,
// newest first (max <= 0: all of them). The result is a copy.
func (r *ring[T]) newest(max int, since uint64) []T {
	n := min(r.n-since, uint64(len(r.slots)))
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]T, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.slots[(r.n-1-i)%uint64(len(r.slots))])
	}
	return out
}
