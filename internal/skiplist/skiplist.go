// Package skiplist implements a randomized skip list keyed by byte slices.
//
// It is the ordered-map substrate underneath the memtable. Values are
// pointers owned by the caller. The list stores its own copy of each key,
// and takes that copy, the node and the node's tower of links from slabs
// it allocates a few kilobytes at a time: nodes are never unlinked, so a
// slab lives exactly as long as the list, and an insert allocates nothing
// of its own. The zero value is not usable; use New.
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
	"math/rand/v2"
	"sync/atomic"
)

const (
	maxHeight = 16
	// pInv is the inverse branching probability: a node of height h is
	// promoted to h+1 with probability 1/pInv.
	pInv = 4
)

// Slab sizes: what one slab allocation holds of nodes, of tower links and
// of key bytes. A key longer than keySlab gets a slab of its own length.
const (
	nodeSlab = 128
	linkSlab = 256
	keySlab  = 4 << 10
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

	// The writer's own state; readers never touch it.
	rng rand.PCG
	// splice holds, per level below the height, the node the last Put
	// found or linked there (every Put sets them all): every one has a key
	// at or below the last key put, so a Put of a later key starts its
	// descent from them (an ascending load walks a step or two per level
	// instead of descending from the head).
	splice [maxHeight]*node[V]
	// The slabs new nodes, their towers and their keys are cut from.
	nodes []node[V]
	links []atomic.Pointer[node[V]]
	keys  []byte
}

// New returns an empty list whose level randomness is drawn from seed.
// Deterministic seeding keeps tests and experiments reproducible.
func New[V any](seed int64) *List[V] {
	l := &List[V]{
		head: &node[V]{next: make([]atomic.Pointer[node[V]], maxHeight)},
		rng:  *rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15),
	}
	l.height.Store(1)
	return l
}

// Len reports the number of entries.
func (l *List[V]) Len() int { return int(l.length.Load()) }

// randomHeight draws a height from one 64-bit draw: each pair of bits
// that is zero promotes the node one level, with probability 1/pInv.
func (l *List[V]) randomHeight() int {
	h, r := 1, l.rng.Uint64()
	for h < maxHeight && r%pInv == 0 {
		h++
		r /= pInv
	}
	return h
}

// findGE returns the first node with key >= key. The node returned is
// the very one whose key the level-0 walk compared last: loading the link
// a second time could return a node the writer has inserted in between,
// whose key is below key.
func (l *List[V]) findGE(key []byte) *node[V] {
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
	}
	return nx
}

// findSplice is the writer's findGE: it also leaves in l.splice, per
// level, the last node whose key is below key, and starts each level from
// the previous Put's splice when that lies ahead and below key.
func (l *List[V]) findSplice(key []byte) *node[V] {
	hint := l.splice[0] != nil && l.splice[0] != l.head && bytes.Compare(l.splice[0].key, key) < 0
	x := l.head
	var nx *node[V]
	for i := int(l.height.Load()) - 1; i >= 0; i-- {
		// Every splice key is at or below splice[0]'s, so below key.
		if s := l.splice[i]; hint && s != x && s != l.head && (x == l.head || bytes.Compare(x.key, s.key) < 0) {
			x = s
		}
		for {
			nx = x.next[i].Load()
			if nx == nil || bytes.Compare(nx.key, key) >= 0 {
				break
			}
			x = nx
		}
		l.splice[i] = x
	}
	return nx
}

// Get returns the value stored under key, or nil.
func (l *List[V]) Get(key []byte) *V {
	if n := l.findGE(key); n != nil && bytes.Equal(n.key, key) {
		return n.value.Load()
	}
	return nil
}

// Put stores under key the value that next returns when given the stored
// key and the key's current value (nil when the key is absent), in one
// descent. A present key keeps its node and its stored key; only the
// value is replaced. An absent key is stored as the list's own copy, so
// the caller may reuse key once Put returns; next is handed that copy.
func (l *List[V]) Put(key []byte, next func(stored []byte, cur *V) *V) {
	if n := l.findSplice(key); n != nil && bytes.Equal(n.key, key) {
		n.value.Store(next(n.key, n.value.Load()))
		return
	}
	h := l.randomHeight()
	if cur := int(l.height.Load()); h > cur {
		for i := cur; i < h; i++ {
			l.splice[i] = l.head
		}
		// A reader that sees the new height before the links below finds
		// head.next nil at the new levels and simply descends.
		l.height.Store(int32(h))
	}
	nn := l.newNode(key, h)
	nn.value.Store(next(nn.key, nil))
	for i := 0; i < h; i++ {
		nn.next[i].Store(l.splice[i].next[i].Load())
	}
	for i := 0; i < h; i++ {
		l.splice[i].next[i].Store(nn)
		l.splice[i] = nn
	}
	l.length.Add(1)
}

// newNode cuts a node of height h holding a copy of key from the slabs.
func (l *List[V]) newNode(key []byte, h int) *node[V] {
	if len(l.nodes) == cap(l.nodes) {
		l.nodes = make([]node[V], 0, nodeSlab)
	}
	l.nodes = l.nodes[:len(l.nodes)+1]
	n := &l.nodes[len(l.nodes)-1]
	if len(l.links)+h > cap(l.links) {
		l.links = make([]atomic.Pointer[node[V]], 0, linkSlab)
	}
	at := len(l.links)
	l.links = l.links[:at+h]
	n.next = l.links[at : at+h : at+h]
	if len(l.keys)+len(key) > cap(l.keys) {
		l.keys = make([]byte, 0, max(keySlab, len(key)))
	}
	at = len(l.keys)
	l.keys = append(l.keys, key...)
	n.key = l.keys[at:len(l.keys):len(l.keys)]
	return n
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
	it.node = it.list.findGE(key)
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
