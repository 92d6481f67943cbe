package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/compaction"
	"repro/internal/lsm"
	"repro/internal/obs"
)

// TestLoadOrderAndL0Depth loads the same 20 000 keys into a two-shard
// TRIAD store two ways, each by two writers in 64-op batches: ascending,
// each writer every other key as the benchmark's set-up does, and
// shuffled. Both stores must match a map oracle after CompactAll. Where L0
// can fold, L0 is counted by read depth: the ascending load's L0 tables
// are near key-disjoint, so it must never fold and never stop writers on
// L0, while the shuffled load's tables each span the key space, so its L0
// depth is its file count and it folds as before.
func TestLoadOrderAndL0Depth(t *testing.T) {
	const keys, writers, batchOps = 20000, 2, 64
	engine := lsm.TriadOptions(nil)
	// About 700 entries per memtable: some 14 flushes a shard, enough for
	// a merge into an empty L1 and a fold after it, and far more key space
	// per table than the two writers drift apart.
	engine.MemtableBytes = 112 << 10
	engine.CommitLogBytes = 448 << 10
	engine.FlushThresholdBytes = 56 << 10
	engine.BaseLevelBytes = 1 << 20
	engine.TargetFileBytes = 112 << 10
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("%0100d", i*7919)) }

	for _, c := range []struct {
		name     string
		shuffled bool
	}{{"ascending", false}, {"shuffled", true}} {
		t.Run(c.name, func(t *testing.T) {
			order := make([]int, keys)
			for i := range order {
				order[i] = i
			}
			if c.shuffled {
				rand.New(rand.NewSource(1)).Shuffle(keys, func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			db, err := Open(Options{Shards: 2, Engine: engine, NewFS: MemFS()})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			errs := make([]error, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					b := &Batch{}
					for i := w; i < keys; i += writers {
						b.Put(key(order[i]), val(order[i]))
						if b.Len() == batchOps || i+writers >= keys {
							if errs[w] = db.Apply(b); errs[w] != nil {
								return
							}
							b = &Batch{}
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}

			it, err := db.NewIterator(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for ; it.Next(); n++ {
				if want := string(key(n)); string(it.Key()) != want || string(it.Value()) != string(val(n)) {
					t.Fatalf("entry %d is %q=%q, want %q=%q", n, it.Key(), it.Value(), want, val(n))
				}
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n != keys {
				t.Fatalf("scan found %d keys, want %d", n, keys)
			}

			m := db.Metrics()
			if db.Events().Dropped() > 0 {
				t.Fatalf("the journal dropped %d events; the stall check would be partial", db.Events().Dropped())
			}
			l0Stops := 0
			for _, e := range db.Events().Events(0) {
				if e.Kind == obs.EventStall && strings.HasPrefix(e.Detail, "l0-stop-writes;") {
					l0Stops++
				}
			}
			t.Logf("%d flushes, %d folds, L0 merges: %d rent paid, %d log ceiling, %d drain; %d L0 write stops",
				m.Flushes, m.Folds, m.MergesRentPaid, m.MergesLogCeiling, m.MergesDrain, l0Stops)
			if m.Flushes < 4*compaction.MaxFilesL0 {
				t.Fatalf("%d flushes over both shards: too few for L0 to reach the fold trigger", m.Flushes)
			}
			if c.shuffled {
				if m.Folds == 0 {
					t.Fatal("the shuffled load never folded: its tables overlap, so L0's depth is its file count")
				}
				return
			}
			if m.Folds != 0 || l0Stops != 0 {
				t.Fatalf("the ascending load folded %d times and stopped writers on L0 %d times; its tables barely overlap", m.Folds, l0Stops)
			}
		})
	}
}
