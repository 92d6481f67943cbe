// Package mustclose seeds violations of the pinning-handle lifetime
// invariant: snapshots, iterators and block-cache tenant handles must
// be closed/released on every path, or escape to an owner (returned,
// stored, handed to a function, captured by a closure). It also pins
// the idioms the analyzer must accept: the expected-error probe, the
// derived-resource hand-off, container stores, and the explicit
// `_ = v` deliberate-leak marker used by reclamation tests.
package mustclose

import (
	"bgsched"
	"client"
	"compaction"
	"lsm"
	"shard"
	"sstable"
	"triad"
)

var cond bool

// leakOnEarlyReturn closes on the happy path only.
func leakOnEarlyReturn(db *lsm.DB) error {
	s, err := db.NewSnapshot() // want `engine snapshot \(\*lsm\.Snapshot\) may not be closed`
	if err != nil {
		return err
	}
	if cond {
		return nil // snapshot leaks here
	}
	return s.Close()
}

// dropped never binds the snapshot.
func dropped(db *lsm.DB) {
	db.NewSnapshot() // want `result of NewSnapshot \(engine snapshot \(\*lsm\.Snapshot\)\) is dropped`
}

// leakIterator forgets the iterator entirely.
func leakIterator(db *lsm.DB) int {
	it, err := db.NewIterator(nil, nil) // want `engine iterator \(\*lsm\.Iterator\) may not be closed`
	if err != nil {
		return 0
	}
	n := 0
	for it.Next() {
		n++
	}
	return n
}

// leakHandle forgets the tenant's release.
func leakHandle(c *sstable.Cache) []byte {
	h := c.NewHandle() // want `block-cache tenant handle \(\*sstable\.Handle\) may not be released`
	return h.Get(1, 0)
}

// deferClose is the canonical correct shape.
func deferClose(db *lsm.DB) error {
	s, err := db.NewSnapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	_, err = s.Get(nil)
	return err
}

// deferRelease likewise for handles.
func deferRelease(c *sstable.Cache) []byte {
	h := c.NewHandle()
	defer h.Release()
	return h.Get(1, 0)
}

// expectedErrorProbe binds the result and closes it only on the
// unexpected-success path; the error path carries a nil resource and
// is pruned.
func expectedErrorProbe(db *lsm.DB) bool {
	if s, err := db.NewSnapshot(); err == nil {
		s.Close()
		return false
	}
	return true
}

// nilTestPruned: an explicit nil test also prunes.
func nilTestPruned(db *lsm.DB) {
	s, _ := db.NewSnapshot()
	if s == nil {
		return
	}
	s.Close()
}

// storedInContainer: assignment into a slice element is an ownership
// transfer to the container, not a drop.
func storedInContainer(db *lsm.DB, snaps []*lsm.Snapshot) error {
	var err error
	snaps[0], err = db.NewSnapshot()
	return err
}

// derivedIterator: calling a constructor method on the snapshot hands
// it to the derived iterator, which the caller then owns.
func derivedIterator(db *lsm.DB) (*lsm.Iterator, error) {
	s, err := db.NewSnapshot()
	if err != nil {
		return nil, err
	}
	it, err := s.NewIterator(nil, nil)
	if err != nil {
		s.Close()
		return nil, err
	}
	return it, nil
}

// interfaceResource: shard.Iter is tracked through its interface type.
func interfaceResource(db *shard.DB) error {
	snap, err := db.NewSnapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	it, err := snap.NewIterator(nil, nil) // want `store iterator \(shard\.Iter\) may not be closed`
	if err != nil {
		return err
	}
	for it.Next() {
	}
	return nil
}

// goroutineLoopClose: a snapshot minted and closed inside a goroutine
// loop is settled even though the loop re-enters the creation; this
// pins the fix for analyzing function-literal bodies in place.
func goroutineLoopClose(db *shard.DB, stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := db.NewSnapshot()
			if err != nil {
				return
			}
			snap.Close()
		}
	}()
}

// goroutineLeak: the same loop without the Close is a finding inside
// the literal body.
func goroutineLeak(db *shard.DB, stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := db.NewSnapshot() // want `store snapshot \(\*shard\.Snapshot\) may not be closed`
			if err != nil {
				return
			}
			_ = snap.Get
		}
	}()
}

// deliberateLeak documents the reclamation-test idiom: binding the
// resource and explicitly discarding it with `_ = v` asserts the leak
// is intentional (the finalizer accounting is the subject under
// test), and the analyzer treats the discard as a transfer.
func deliberateLeak(db *lsm.DB) {
	s, err := db.NewSnapshot()
	if err != nil {
		return
	}
	_ = s // dropped without Close, on purpose
}

// closureCapture: capture by any closure counts as a hand-off, since
// the closure may outlive the frame.
func closureCapture(db *lsm.DB) (func() error, error) {
	s, err := db.NewSnapshot()
	if err != nil {
		return nil, err
	}
	return func() error { return s.Close() }, nil
}

// --- the public package's aliases ---

// aliasSnapshotLeak: triad.DB is an alias of shard.DB, so a snapshot
// taken through it is the store's snapshot and leaks the same way.
func aliasSnapshotLeak(db *triad.DB) error {
	var s *triad.Snapshot
	s, err := db.NewSnapshot() // want `store snapshot \(\*shard\.Snapshot\) may not be closed`
	if err != nil {
		return err
	}
	_, err = s.Get(nil)
	return err
}

// aliasIteratorLeak: an iterator opened on a triad.Snapshot and held
// as a triad.Iterator is the store's iterator, and is tracked as one.
func aliasIteratorLeak(s *triad.Snapshot) int {
	var it triad.Iterator
	it, err := s.NewIterator(nil, nil) // want `store iterator \(shard\.Iter\) may not be closed`
	if err != nil {
		return 0
	}
	n := 0
	for it.Next() {
		n++
	}
	return n
}

// aliasDeferClose is the correct shape through the aliases.
func aliasDeferClose(db *triad.DB) error {
	s, err := db.NewSnapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	it, err := s.NewIterator(nil, nil)
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
	}
	return nil
}

// --- background scheduler handles ---

// leakPool starts workers and never stops them: goroutines leak past
// the frame.
func leakPool() int {
	p := bgsched.NewPool(2) // want `background worker pool \(\*bgsched\.Pool\) may not be closed`
	return p.Workers()
}

// poolDeferClose is the canonical correct shape.
func poolDeferClose() int {
	p := bgsched.NewPool(2)
	defer p.Close()
	return p.Workers()
}

// poolEscapesToOptions: storing the pool in a config struct hands it
// to the component that will own its shutdown.
type engineOptions struct {
	Scheduler *bgsched.Pool
}

func poolEscapesToOptions(o *engineOptions) {
	o.Scheduler = bgsched.NewPool(4)
}

// leakOwnerOnEarlyReturn closes the owner on the happy path only; the
// early return abandons its queued tasks.
func leakOwnerOnEarlyReturn(p *bgsched.Pool) error {
	o := p.NewOwner() // want `scheduler owner handle \(\*bgsched\.Owner\) may not be closed`
	if !o.Submit(bgsched.ClassFlush, 0, func() {}) {
		return nil // owner leaks here
	}
	return o.Close()
}

// ownerDeferClose settles the owner on every path.
func ownerDeferClose(p *bgsched.Pool) {
	o := p.NewOwner()
	defer o.Close()
	o.Submit(bgsched.ClassDeep, 1, func() {})
}

// --- compaction merge iterators ---

// leakMerge forgets the merge (and with it every input table iterator)
// when the entry count comes up empty.
func leakMerge(its []compaction.Iterator) int {
	m := compaction.NewMergeIterator(its) // want `compaction merge iterator \(\*compaction\.MergeIterator\) may not be closed`
	n := 0
	for m.Next() {
		n++
	}
	return n
}

// mergeDeferClose is the correct shape.
func mergeDeferClose(its []compaction.Iterator) (int, error) {
	m := compaction.NewMergeIterator(its)
	defer m.Close()
	n := 0
	for m.Next() {
		n++
	}
	return n, m.Err()
}

// mergeHandedToDedup: wrapping the merge in a dedup iterator transfers
// ownership — the dedup's Close covers both — but the dedup itself
// must then be settled.
func mergeHandedToDedup(its []compaction.Iterator) error {
	m := compaction.NewMergeIterator(its)
	d := compaction.NewDedupIterator(m, true, nil)
	defer d.Close()
	for d.Next() {
	}
	return d.Err()
}

// leakDedup wraps and then forgets the whole stack.
func leakDedup(its []compaction.Iterator) int {
	m := compaction.NewMergeIterator(its)
	d := compaction.NewDedupIterator(m, false, nil) // want `compaction dedup iterator \(\*compaction\.DedupIterator\) may not be closed`
	n := 0
	for d.Next() {
		n++
	}
	return n
}

// --- client connections ---

// leakConn pings and walks away: the socket, and every cursor the server
// keeps for it, stay open.
func leakConn(addr string) error {
	c, err := client.Dial(addr) // want `client connection \(\*client\.Conn\) may not be closed`
	if err != nil {
		return err
	}
	return c.Ping()
}

// leakConnOnEarlyReturn quits on the happy path only.
func leakConnOnEarlyReturn(addr string) error {
	c, err := client.Dial(addr) // want `client connection \(\*client\.Conn\) may not be closed`
	if err != nil {
		return err
	}
	if err := c.Ping(); err != nil {
		return err // connection leaks here
	}
	return c.Quit()
}

// connDeferClose is the canonical correct shape.
func connDeferClose(addr string) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Ping()
}

// connQuit: QUIT closes the connection too.
func connQuit(addr string) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	c.Ping()
	return c.Quit()
}
