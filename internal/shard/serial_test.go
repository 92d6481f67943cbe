package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// conflictKeySet returns n keys that collectively hash onto every shard,
// so a batch writing all of them is a cross-shard conflict with every
// other such batch.
func conflictKeySet(t *testing.T, n, shards int) [][]byte {
	t.Helper()
	keys := make([][]byte, 0, n)
	hit := make(map[int]bool)
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("conflict-%04d", i))
		hit[fnv(k, shards)] = true
		keys = append(keys, k)
	}
	if len(hit) != shards {
		t.Fatalf("%d conflict keys only reach %d of %d shards", n, len(hit), shards)
	}
	return keys
}

// TestApplySerializableConflictingBatches is the serializability torture
// test for the epoch commit pipeline. Two writers race fully conflicting
// cross-shard batches — every batch stamps the same key set, spanning
// all shards, with a unique value — while readers take snapshots. Under
// the old commit path, the per-shard sub-batches of two concurrent
// Applies interleaved in unspecified order, so a snapshot could see
// writer A's stamp on one shard's keys and writer B's on another's
// (verified: with the clock's per-shard ticket ordering disabled, this
// test fails within a few rounds). With the store clock, every batch
// commits at one totally ordered epoch, so each snapshot must observe
// a prefix of that one serial order:
//
//  1. atomicity — all keys carry the same stamp;
//  2. ordering — the stamp is the one with the greatest epoch below the
//     snapshot's own epoch, no batch skipped, none from the future.
//
// Run under -race in CI.
func TestApplySerializableConflictingBatches(t *testing.T) {
	const (
		shards  = 4
		nkeys   = 16
		writers = 2
		batches = 250 // per writer
		readers = 3
		reads   = 120 // per reader
	)
	db := openMem(t, shards)
	defer db.Close()
	keys := conflictKeySet(t, nkeys, shards)

	// epochOf records every committed stamp's epoch (writers fill it;
	// verification reads it after the run).
	var mu sync.Mutex
	epochOf := map[string]uint64{}

	stampAll := func(stamp string) (uint64, error) {
		b := &Batch{}
		for _, k := range keys {
			b.Put(k, []byte(stamp))
		}
		c, err := db.Prepare(b)
		if err != nil {
			return 0, err
		}
		if err := c.Commit(); err != nil {
			return 0, err
		}
		return c.Epoch(), nil
	}
	initEpoch, err := stampAll("init")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	epochOf["init"] = initEpoch
	mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				stamp := fmt.Sprintf("w%d-%04d", w, i)
				e, err := stampAll(stamp)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				epochOf[stamp] = e
				mu.Unlock()
			}
		}(w)
	}

	// observation is one snapshot's view: its epoch and the stamp set it
	// saw (one entry iff the view was atomic).
	type observation struct {
		epoch  uint64
		stamps map[string]bool
	}
	obs := make([][]observation, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 99))
			for i := 0; i < reads && !t.Failed(); i++ {
				s, err := db.NewSnapshot()
				if err != nil {
					t.Error(err)
					return
				}
				o := observation{epoch: s.Epoch(), stamps: map[string]bool{}}
				if rng.Intn(2) == 0 {
					for _, k := range keys {
						v, err := s.Get(k)
						if err != nil {
							t.Errorf("snapshot Get(%s): %v", k, err)
						}
						o.stamps[string(v)] = true
					}
				} else {
					it, err := s.NewIterator([]byte("conflict-"), []byte("conflict-z"))
					if err != nil {
						t.Error(err)
						s.Close()
						return
					}
					n := 0
					for it.Next() {
						o.stamps[string(it.Value())] = true
						n++
					}
					if err := it.Close(); err != nil {
						t.Error(err)
					}
					if n != nkeys {
						t.Errorf("snapshot scan saw %d keys, want %d", n, nkeys)
					}
				}
				s.Close()
				if len(o.stamps) != 1 {
					t.Errorf("snapshot at epoch %d observed %d distinct stamps %v — torn conflicting batches", o.epoch, len(o.stamps), o.stamps)
				}
				obs[r] = append(obs[r], o)
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Verify the prefix property against the one serial order the epochs
	// define: each snapshot saw exactly the committed batch with the
	// greatest epoch below its own.
	type commit struct {
		epoch uint64
		stamp string
	}
	serial := make([]commit, 0, len(epochOf))
	for stamp, e := range epochOf {
		serial = append(serial, commit{e, stamp})
	}
	sort.Slice(serial, func(i, j int) bool { return serial[i].epoch < serial[j].epoch })
	for r := range obs {
		for _, o := range obs[r] {
			i := sort.Search(len(serial), func(i int) bool { return serial[i].epoch >= o.epoch })
			if i == 0 {
				t.Fatalf("snapshot at epoch %d predates the init batch (epoch %d)", o.epoch, serial[0].epoch)
			}
			want := serial[i-1].stamp
			if !o.stamps[want] {
				t.Errorf("snapshot at epoch %d observed %v, want %q (the last commit at epoch %d) — not a prefix of the serial order",
					o.epoch, o.stamps, want, serial[i-1].epoch)
			}
		}
	}
}
