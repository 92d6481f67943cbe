package shard

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// keysOn returns n distinct keys the store routes to shard i.
func keysOn(db *DB, i, n int, prefix string) [][]byte {
	var out [][]byte
	for j := 0; len(out) < n; j++ {
		k := []byte(fmt.Sprintf("%s-%06d", prefix, j))
		if fnv(k, len(db.shards)) == i {
			out = append(out, k)
		}
	}
	return out
}

// TestPutPathBudget pins what one commit costs, so the put path cannot
// quietly grow back: allocations per Put, of an existing key and of a new
// one alike (one copy of key and value together, and the memtable's new
// version; the skiplist cuts a new key's node, tower and stored key from
// its slabs), device writes per batch — one per touched shard, however
// many records the batch holds — and allocations per put of a 64-put
// batch over both shards.
func TestPutPathBudget(t *testing.T) {
	var fses []*vfs.MemFS
	db, err := Open(Options{Shards: 2, Engine: smallEngine(), NewFS: func(int) (vfs.FS, error) {
		fs := vfs.NewMemFS()
		fses = append(fses, fs)
		return fs, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 100)

	hot := []byte("hot-key")
	if err := db.Put(hot, val); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := db.Put(hot, val); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("Put of an existing key: %.0f allocations, budget 2", got)
	}

	i := 0
	fresh := keysOn(db, 0, 101, "new") // AllocsPerRun makes one warm-up call
	if got := testing.AllocsPerRun(100, func() {
		if err := db.Put(fresh[i], val); err != nil {
			t.Fatal(err)
		}
		i++
	}); got > 2 {
		t.Errorf("Put of a new key: %.0f allocations, budget 2", got)
	}

	writeOps := func() (n int64) {
		for _, fs := range fses {
			n += fs.Stats.WriteOps.Load()
		}
		return n
	}
	for _, touched := range []int{1, 2} {
		b := &Batch{}
		for s := 0; s < touched; s++ {
			for _, k := range keysOn(db, s, 64/touched, fmt.Sprintf("batch%d", touched)) {
				b.Put(k, val)
			}
		}
		before := writeOps()
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
		if got := writeOps() - before; got != int64(touched) {
			t.Errorf("64-put Apply over %d shards: %d device writes, want %d", touched, got, touched)
		}
	}

	// A batch's own costs (its sub-batches, the ticket, the parallel
	// commit) are shared by its 64 puts: 2.23 a put, 2.28 under -race.
	both := append(keysOn(db, 0, 32, "apply"), keysOn(db, 1, 32, "apply")...)
	b := &Batch{}
	if got := testing.AllocsPerRun(100, func() {
		b.Reset()
		for _, k := range both {
			b.Put(k, val)
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(both)); got > 2.3 {
		t.Errorf("64-put Apply over both shards: %.2f allocations per put, budget 2.3", got)
	}
}

// TestStalledShardDoesNotBlockOtherShard: with shard 0 stalled for as
// long as the test likes (its flushes cannot create their tables), puts
// to shard 1 keep completing — also while a cross-shard batch is waiting
// for shard 0, because a ticket absorbs its shards' stalls before it takes
// any shard's commit lock. Once the gate opens everything drains.
func TestStalledShardDoesNotBlockOtherShard(t *testing.T) {
	// Shard 0's filesystem parks the creation of table files until gate is
	// closed, which wedges the shard's flushes — and, once the flush queue
	// is full, stalls its writers.
	gate := make(chan struct{})
	gated := vfs.NewMemFS()
	gated.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpCreate && (strings.HasSuffix(op.Name, ".sst") || strings.HasSuffix(op.Name, ".clidx")) {
			<-gate
		}
		return nil
	}})
	db, err := Open(Options{Shards: 2, Engine: smallEngine(), NewFS: func(i int) (vfs.FS, error) {
		if i == 0 {
			return gated, nil
		}
		return vfs.NewMemFS(), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-registered first: the gate opens before Close,
	// which waits for the parked flushes, also when the test fails with
	// the gate shut.
	t.Cleanup(func() { db.Close() })
	openGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(openGate)
	val := make([]byte, 1<<10)

	// Far more than shard 0 can absorb without a flush completing: the
	// writer cannot finish while the gate is shut.
	doomed := keysOn(db, 0, 16*32, "stalled")
	var progress atomic.Int64
	stalledDone := make(chan error, 1)
	go func() {
		for _, k := range doomed {
			if err := db.Put(k, val); err != nil {
				stalledDone <- err
				return
			}
			progress.Add(1)
		}
		stalledDone <- nil
	}()

	// Put to shard 1 until the stalled writer has made no progress for a
	// long run of them. If shard 1's puts wait on shard 0, this loop stops
	// turning and the watchdog fires.
	watchdog := time.AfterFunc(time.Minute, func() { panic("puts to shard 1 blocked behind stalled shard 0") })
	defer watchdog.Stop()
	free := keysOn(db, 1, 64, "free")
	putFree := func(n int) {
		for i := 0; i < n; i++ {
			if err := db.Put(free[i%len(free)], val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for last, quiet := int64(-1), 0; quiet < 2000; quiet++ {
		if p := progress.Load(); p != last {
			last, quiet = p, 0
		}
		putFree(1)
	}
	if p := progress.Load(); p == int64(len(doomed)) {
		t.Fatalf("the stalled writer finished all %d puts with the gate shut", p)
	}

	cross := &Batch{}
	cross.Put(doomed[0], val)
	cross.Put(free[0], []byte("from the cross-shard batch"))
	crossDone := make(chan error, 1)
	go func() { crossDone <- db.Apply(cross) }()
	putFree(2000)
	select {
	case err := <-crossDone:
		t.Fatalf("cross-shard batch committed on a stalled shard: %v", err)
	case err := <-stalledDone:
		t.Fatalf("stalled writer returned with the gate shut: %v", err)
	default:
	}

	openGate()
	if err := <-stalledDone; err != nil {
		t.Fatal(err)
	}
	if err := <-crossDone; err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(free[0]); err != nil || string(v) != "from the cross-shard batch" {
		t.Fatalf("Get after the drain = %q, %v", v, err)
	}
	if _, err := db.Get(doomed[len(doomed)-1]); err != nil {
		t.Fatal(err)
	}
}
