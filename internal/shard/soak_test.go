package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestSchedulerSoak is the race-detector soak gate for the shared
// background pool: aggressive concurrent ingest into tiny memtables
// so sealing, flush scheduling, compactions and write stalls all fire
// constantly across shards
// contending for two workers — then a clean Close with nothing
// left queued, running or lost.
func TestSchedulerSoak(t *testing.T) {
	eng := smallEngine()
	eng.MemtableBytes = 4 << 10
	eng.FlushThresholdBytes = 2 << 10
	db, err := Open(Options{
		Shards:            4,
		Engine:            eng,
		NewFS:             MemFS(),
		BackgroundWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	const writers, opsPerWriter = 6, 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := bytes.Repeat([]byte{byte(w)}, 120)
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%d-%05d", w, i)
				if err := db.Put([]byte(key), val); err != nil {
					t.Error(err)
					return
				}
				if i%13 == 0 {
					if err := db.Delete([]byte(fmt.Sprintf("w%d-%05d", w, i/2))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The backpressure path must actually have fired, or the soak
	// exercised nothing.
	if m := db.Metrics(); m.WriteStalls == 0 {
		t.Error("soak never stalled a writer; tighten the configuration")
	} else {
		t.Logf("%d write stalls", m.WriteStalls)
	}

	// Spot-check that the last write of every writer survived the churn.
	for w := 0; w < writers; w++ {
		key := fmt.Sprintf("w%d-%05d", w, opsPerWriter-1)
		if _, err := db.Get([]byte(key)); err != nil {
			t.Fatalf("lost %s: %v", key, err)
		}
	}

	pool := db.Scheduler()
	if pool.Workers() != 2 {
		t.Fatalf("pool has %d workers despite BackgroundWorkers=2", pool.Workers())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Clean shutdown: every worker exited, nothing queued, nothing
	// still running.
	if s := pool.Stats(); s.Busy != 0 || s.QueuedTotal() != 0 {
		t.Fatalf("pool not drained after Close: %+v", s)
	}
}
