// Hotcold demonstrates TRIAD-MEM on the paper's motivating scenario: a
// highly skewed update workload (1% of keys get 99% of writes, §5.3 WS1).
// It runs the identical workload on the baseline engine and on TRIAD and
// prints the background-I/O metrics side by side — the skewed-workload
// half of Figure 9D, live.
package main

import (
	"errors"
	"fmt"
	"log"

	triad "repro"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func run(name string, profile triad.Profile) {
	fs := vfs.NewMemFS()
	opts := triad.TriadEngineOptions(fs)
	if profile == triad.ProfileBaseline {
		opts = triad.BaselineEngineOptions(fs)
	}
	// Scale down so flushes happen within the demo.
	opts.MemtableBytes = 256 << 10
	opts.CommitLogBytes = 1 << 20
	opts.FlushThresholdBytes = 128 << 10
	opts.BaseLevelBytes = 2 << 20
	opts.TargetFileBytes = 256 << 10

	db, err := triad.Open(triad.Options{FS: fs, Advanced: &opts})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	mix := workload.Mix{
		Dist:         workload.HotCold{N: 20_000, HotFraction: 0.01, HotAccess: 0.99},
		ReadFraction: 0.10,
	}
	stream := mix.NewStream(7)
	for i := 0; i < 200_000; i++ {
		op := stream.Next()
		if op.Read {
			if _, err := db.Get(op.Key); err != nil && !errors.Is(err, triad.ErrNotFound) {
				log.Fatal(err)
			}
			continue
		}
		if err := db.Put(op.Key, op.Value); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	m := db.Metrics()
	fmt.Printf("%-9s flushes=%-4d flush-skips=%-4d compactions=%-4d deferred=%-4d\n",
		name, m.Flushes, m.FlushSkips, m.Compactions, m.CompactionsDeferred)
	fmt.Printf("%-9s loggedMB=%-7.1f flushedMB=%-7.1f compactedMB=%-7.1f WA=%.2f\n\n",
		"", float64(m.BytesLogged)/(1<<20), float64(m.BytesFlushed)/(1<<20),
		float64(m.BytesCompacted)/(1<<20), m.WriteAmplification())
}

func main() {
	fmt.Println("Skewed workload (1% of keys take 99% of 180k writes):")
	run("baseline", triad.ProfileBaseline)
	run("triad", triad.ProfileTriad)
	fmt.Println("TRIAD keeps the hot 1% in memory: fewer flushes, far less compaction.")
}
