package shard

import (
	"math/rand"
	"sync"
	"testing"
)

// TestClockEpochsUniqueAndOrdered: tickets draw strictly increasing
// epochs, and per shard they run one at a time in exactly epoch order.
func TestClockEpochsUniqueAndOrdered(t *testing.T) {
	const shards, workers, perWorker = 3, 8, 200
	c := newClock(shards, 0)
	order := make([][]uint64, shards) // per shard: epochs in commit order; the shard's lock guards it
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				// Random non-empty shard subset, ascending.
				var idxs []int
				for s := 0; s < shards; s++ {
					if rng.Intn(2) == 0 {
						idxs = append(idxs, s)
					}
				}
				if len(idxs) == 0 {
					idxs = []int{rng.Intn(shards)}
				}
				epoch := c.acquire(idxs)
				for _, s := range idxs {
					order[s] = append(order[s], epoch)
					c.release(s)
				}
			}
		}(w)
	}
	wg.Wait()
	for s, epochs := range order {
		for i := 1; i < len(epochs); i++ {
			if epochs[i] <= epochs[i-1] {
				t.Fatalf("shard %d committed epoch %d after %d — not in ticket order", s, epochs[i], epochs[i-1])
			}
		}
	}
	// One epoch per ticket, and every ticket released its shards.
	if got := c.last.Load(); got != uint64(workers*perWorker) {
		t.Fatalf("last epoch = %d, want %d", got, workers*perWorker)
	}
	if held := heldShards(c); len(held) > 0 {
		t.Fatalf("shards %v still locked after every ticket released", held)
	}
}

// heldShards lists the shards whose commit lock a ticket still holds.
// Call it only when no ticket may be running: it takes each free lock
// for a moment.
func heldShards(c *clock) []int {
	var held []int
	for i := range c.shards {
		if !c.shards[i].TryLock() {
			held = append(held, i)
			continue
		}
		c.shards[i].Unlock()
	}
	return held
}

// TestClockResume: a clock resuming from a recovered sequence issues
// epochs strictly above it.
func TestClockResume(t *testing.T) {
	c := newClock(2, 41)
	if got := c.last.Load(); got != 41 {
		t.Fatalf("last epoch = %d, want 41", got)
	}
	epoch := c.acquire([]int{0, 1})
	if epoch != 42 {
		t.Fatalf("first epoch = %d, want 42", epoch)
	}
	if held := heldShards(c); len(held) != 2 {
		t.Fatalf("shards %v locked while the ticket holds both", held)
	}
	c.release(0)
	c.release(1)
	if got := c.last.Load(); got != 42 {
		t.Fatalf("last epoch = %d, want 42", got)
	}
	if held := heldShards(c); len(held) > 0 {
		t.Fatalf("shards %v still locked after the ticket released them", held)
	}
}
