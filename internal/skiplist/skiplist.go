// Package skiplist implements a randomized skip list keyed by byte slices.
//
// It is the ordered-map substrate underneath the memtable. Values are
// pointers owned by the caller; the list never copies keys or values. The
// zero value is not usable; use New.
//
// Concurrency: one writer, any number of readers, no locks (LevelDB's
// memtable discipline). Put and Iterator.Set must be called by at most one
// goroutine at a time — the memtable's callers serialize them behind the
// engine's commit lock — while Get and iterators may run concurrently with
// them and with each other. A node is fully built before the store that
// links it at level 0, links and values are published with atomic stores
// and read with atomic loads, and nodes are never unlinked, so a reader
// sees each key either absent or with a complete value, and an iterator's
// position stays valid for as long as it is held.
package skiplist

import (
	"bytes"
	"math/rand"
	"sync/atomic"
)

const (
	maxHeight = 16
	// pInv is the inverse branching probability: a node of height h is
	// promoted to h+1 with probability 1/pInv.
	pInv = 4
)

type node[V any] struct {
	key   []byte
	value atomic.Pointer[V]
	next  []atomic.Pointer[node[V]]
}

// List is a skip list mapping byte-slice keys to *V values.
type List[V any] struct {
	head   *node[V]
	height atomic.Int32
	length atomic.Int64
	rng    *rand.Rand // writer only
}

// New returns an empty list whose level randomness is drawn from seed.
// Deterministic seeding keeps tests and experiments reproducible.
func New[V any](seed int64) *List[V] {
	l := &List[V]{
		head: &node[V]{next: make([]atomic.Pointer[node[V]], maxHeight)},
		rng:  rand.New(rand.NewSource(seed)),
	}
	l.height.Store(1)
	return l
}

// Len reports the number of entries.
func (l *List[V]) Len() int { return int(l.length.Load()) }

func (l *List[V]) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(pInv) == 0 {
		h++
	}
	return h
}

// findGE returns the first node with key >= key, along with the per-level
// predecessors (when prev is non-nil). The node returned is the very one
// whose key the level-0 walk compared last: loading the link a second
// time could return a node the writer has inserted in between, whose key
// is below key.
func (l *List[V]) findGE(key []byte, prev []*node[V]) *node[V] {
	x := l.head
	var nx *node[V]
	for i := int(l.height.Load()) - 1; i >= 0; i-- {
		for {
			nx = x.next[i].Load()
			if nx == nil || bytes.Compare(nx.key, key) >= 0 {
				break
			}
			x = nx
		}
		if prev != nil {
			prev[i] = x
		}
	}
	return nx
}

// Get returns the value stored under key, or nil.
func (l *List[V]) Get(key []byte) *V {
	if n := l.findGE(key, nil); n != nil && bytes.Equal(n.key, key) {
		return n.value.Load()
	}
	return nil
}

// Put stores under key the value that next returns when given the key's
// current value (nil when the key is absent), in one descent. A present
// key keeps its node and its key slice; only the value is replaced.
func (l *List[V]) Put(key []byte, next func(cur *V) *V) {
	var prevs [maxHeight]*node[V]
	if n := l.findGE(key, prevs[:]); n != nil && bytes.Equal(n.key, key) {
		n.value.Store(next(n.value.Load()))
		return
	}
	h := l.randomHeight()
	if cur := int(l.height.Load()); h > cur {
		for i := cur; i < h; i++ {
			prevs[i] = l.head
		}
		// A reader that sees the new height before the links below finds
		// head.next nil at the new levels and simply descends.
		l.height.Store(int32(h))
	}
	nn := &node[V]{key: key, next: make([]atomic.Pointer[node[V]], h)}
	nn.value.Store(next(nil))
	for i := 0; i < h; i++ {
		nn.next[i].Store(prevs[i].next[i].Load())
	}
	for i := 0; i < h; i++ {
		prevs[i].next[i].Store(nn)
	}
	l.length.Add(1)
}

// Iterator walks the list in ascending key order. It may be used while the
// writer inserts: keys inserted behind its position are not revisited.
type Iterator[V any] struct {
	list *List[V]
	node *node[V]
}

// NewIterator returns an iterator positioned before the first entry;
// call Next to advance to it.
func (l *List[V]) NewIterator() *Iterator[V] {
	return &Iterator[V]{list: l, node: l.head}
}

// Next advances and reports whether an entry is available.
func (it *Iterator[V]) Next() bool {
	if it.node == nil {
		return false
	}
	it.node = it.node.next[0].Load()
	return it.node != nil
}

// SeekGE positions the iterator at the first entry with key >= key and
// reports whether such an entry exists.
func (it *Iterator[V]) SeekGE(key []byte) bool {
	it.node = it.list.findGE(key, nil)
	return it.node != nil
}

// Key returns the current key. Valid only after a true Next/SeekGE.
func (it *Iterator[V]) Key() []byte { return it.node.key }

// Value returns the current value. Valid only after a true Next/SeekGE.
func (it *Iterator[V]) Value() *V { return it.node.value.Load() }

// Set replaces the current entry's value, as Put under its key would but
// without the descent. It is a write: only the list's one writer may call
// it. Valid only after a true Next/SeekGE.
func (it *Iterator[V]) Set(v *V) { it.node.value.Store(v) }
