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
				c.finish(epoch)
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
	// Every ticket finished, so the watermark is the last epoch issued.
	if got := c.committedEpoch(); got != uint64(workers*perWorker) {
		t.Fatalf("committedEpoch = %d, want %d", got, workers*perWorker)
	}
}

// TestClockWatermarkGap: the committed watermark must not advance past
// an unfinished epoch, even when later epochs finish first.
func TestClockWatermarkGap(t *testing.T) {
	c := newClock(2, 0)
	e1 := c.acquire([]int{0})
	e2 := c.acquire([]int{1})
	// e2 finishes first: watermark stays below e1.
	c.release(1)
	c.finish(e2)
	if got := c.committedEpoch(); got != 0 {
		t.Fatalf("committedEpoch = %d with epoch %d unfinished, want 0", got, e1)
	}
	done := make(chan struct{})
	go func() {
		c.waitCommitted(e2)
		close(done)
	}()
	c.release(0)
	c.finish(e1)
	<-done // waitCommitted(e2) unblocks once the gap closes
	if got := c.committedEpoch(); got != e2 {
		t.Fatalf("committedEpoch = %d, want %d", got, e2)
	}
}

// TestClockResume: a clock resuming from a recovered sequence issues
// epochs strictly above it.
func TestClockResume(t *testing.T) {
	c := newClock(2, 41)
	if got := c.committedEpoch(); got != 41 {
		t.Fatalf("committedEpoch = %d, want 41", got)
	}
	epoch := c.acquire([]int{0, 1})
	if epoch != 42 {
		t.Fatalf("first epoch = %d, want 42", epoch)
	}
	c.release(0)
	c.release(1)
	c.finish(epoch)
	if got := c.committedEpoch(); got != 42 {
		t.Fatalf("committedEpoch = %d, want 42", got)
	}
}
