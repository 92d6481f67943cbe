package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/lsm"
)

// distinctShardPairs returns key pairs whose two keys hash to different
// shards — the configuration under which a torn cross-shard batch is
// observable.
func distinctShardPairs(t *testing.T, n, shards int) [][2]string {
	t.Helper()
	var out [][2]string
	for i := 0; len(out) < n; i++ {
		a := fmt.Sprintf("acct-a-%03d", i)
		b := fmt.Sprintf("acct-b-%03d", i)
		if fnv([]byte(a), shards) != fnv([]byte(b), shards) {
			out = append(out, [2]string{a, b})
		}
		if i > 10*n+100 {
			t.Fatal("could not find enough cross-shard pairs")
		}
	}
	return out
}

// TestSnapshotNoTornCrossShardBatch is the regression test for the
// snapshot barrier: each account pair holds a constant sum (a bank
// transfer moves value between the two sides atomically via a
// cross-shard Apply), and no snapshot — point reads or scan — may ever
// observe a pair mid-commit. Before the barrier, per-shard views were
// captured one after another, so a reader could see the debit without
// the credit. Run under -race in CI.
func TestSnapshotNoTornCrossShardBatch(t *testing.T) {
	const (
		shards  = 4
		pairs   = 8
		sum     = 100
		readers = 4
		rounds  = 150
	)
	db := openMem(t, shards)
	ps := distinctShardPairs(t, pairs, shards)
	init := &Batch{}
	for _, p := range ps {
		init.Put([]byte(p[0]), []byte(strconv.Itoa(sum)))
		init.Put([]byte(p[1]), []byte("0"))
	}
	if err := db.Apply(init); err != nil {
		t.Fatal(err)
	}

	// All writers share every pair, so transfers on the same pair race
	// constantly. The epoch commit pipeline serializes conflicting
	// cross-shard batches (per-shard commits follow ticket order), so
	// each pair always ends in the state of whichever transfer drew the
	// later epoch — the constant sum holds under conflicts, not just
	// between them. (Pre-clock, this required disjoint per-writer pairs:
	// concurrent conflicting batches interleaved per shard and readers
	// saw mixed halves of two transfers.)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := ps[rng.Intn(len(ps))]
				r := rng.Intn(sum + 1)
				b := &Batch{}
				b.Put([]byte(p[0]), []byte(strconv.Itoa(r)))
				b.Put([]byte(p[1]), []byte(strconv.Itoa(sum-r)))
				if err := db.Apply(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	check := func(get func(key string) int, where string) {
		for _, p := range ps {
			if got := get(p[0]) + get(p[1]); got != sum {
				t.Errorf("%s: pair (%s, %s) sums to %d, want %d — torn batch observed", where, p[0], p[1], got, sum)
			}
		}
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; i < rounds && !t.Failed(); i++ {
				if i%2 == 0 {
					// Pinned snapshot: point reads.
					s, err := db.NewSnapshot()
					if err != nil {
						t.Error(err)
						return
					}
					check(func(key string) int {
						v, err := s.Get([]byte(key))
						if err != nil {
							t.Errorf("snapshot Get(%s): %v", key, err)
							return -1 << 20
						}
						n, _ := strconv.Atoi(string(v))
						return n
					}, "snapshot Get")
					s.Close()
				} else {
					// Store-level scan (single-use snapshot under the hood).
					it, err := db.NewIterator([]byte("acct-"), []byte("acct-z"))
					if err != nil {
						t.Error(err)
						return
					}
					seen := map[string]int{}
					for it.Next() {
						n, _ := strconv.Atoi(string(it.Value()))
						seen[string(it.Key())] = n
					}
					if err := it.Close(); err != nil {
						t.Error(err)
						return
					}
					check(func(key string) int { return seen[key] }, "scan")
				}
			}
		}(r)
	}
	rwg.Wait()
	close(stop)
	wg.Wait()
}

// TestShardSnapshotFrozenAndClosed: the cross-shard snapshot freezes
// all shards at once, survives writes, errors after Close, and the
// openSnaps gauge tracks the lifecycle.
func TestShardSnapshotFrozenAndClosed(t *testing.T) {
	db := openMem(t, 4)
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	s, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if db.OpenSnapshots() != 1 {
		t.Fatalf("OpenSnapshots = %d, want 1", db.OpenSnapshots())
	}
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get([]byte("k0123")); err != nil || string(v) != "v1" {
		t.Fatalf("snapshot Get = %q, %v; want v1", v, err)
	}
	it, err := s.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		if string(it.Value()) != "v1" {
			t.Fatalf("snapshot scan saw %q = %q, want v1", it.Key(), it.Value())
		}
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("snapshot scan saw %d entries, want 400", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("OpenSnapshots = %d after Close", db.OpenSnapshots())
	}
	if _, err := s.Get([]byte("k0123")); !errors.Is(err, lsm.ErrSnapshotClosed) {
		t.Fatalf("Get after Close = %v, want ErrSnapshotClosed", err)
	}
	if it2, err := s.NewIterator(nil, nil); !errors.Is(err, lsm.ErrSnapshotClosed) {
		t.Fatalf("NewIterator after Close = %v, want ErrSnapshotClosed", err)
	} else if it2 != nil {
		it2.Close()
	}
}

// TestSnapshotReleasesShardsOnRefusal: when a later shard refuses its
// pin, NewSnapshot gives back the pins it already took on the earlier
// shards, which would otherwise hold their memtables and tables until
// the store closes.
func TestSnapshotReleasesShardsOnRefusal(t *testing.T) {
	db := openMem(t, 2)
	if err := db.shards[1].Close(); err != nil {
		t.Fatal(err)
	}
	if s, err := db.NewSnapshot(); err == nil {
		s.Close()
		t.Fatal("NewSnapshot succeeded over a closed shard")
	}
	if n := db.shards[0].OpenSnapshots(); n != 0 {
		t.Fatalf("shard 0 holds %d snapshots after a refused NewSnapshot, want 0", n)
	}
	if n := db.OpenSnapshots(); n != 0 {
		t.Fatalf("OpenSnapshots = %d after a refused NewSnapshot, want 0", n)
	}
}
