// Command triadbench regenerates the tables and figures of the TRIAD
// paper's evaluation (§5) against this reproduction.
//
// Usage:
//
//	triadbench -experiment fig9a            # one figure, quick scale
//	triadbench -experiment all -scale full  # everything, paper-like scale
//
// Run with -h for the experiment list (it is generated from the table in
// this file).
//
// -shards N (N > 1) runs every figure against the sharded engine (N lsm
// instances at the same aggregate memory); the shardscale experiment
// instead sweeps shard counts 1..N and tabulates the scaling itself,
// and scanlocal compares hash vs range partitioning scan throughput at
// one shard count. -partitioner hash|range picks the shard router for
// the figure runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

// cells adapts an experiment that also returns its measurements.
func cells[T any](f func(harness.Scale, io.Writer) (T, error)) func(harness.Scale, io.Writer) error {
	return func(s harness.Scale, w io.Writer) error { _, err := f(s, w); return err }
}

// shardsOr4 is the shard count of the experiments that need a sharded
// store: -shards when it asks for one, else 4.
func shardsOr4(s harness.Scale) int {
	if s.Shards < 2 {
		return 4
	}
	return s.Shards
}

// experiments is the one list of what triadbench can run: the flag help,
// the unknown-experiment error and "all" (table order) are made from it.
var experiments = []struct {
	name, doc string
	run       func(harness.Scale, io.Writer) error
}{
	{"fig2", "baseline throughput with and without background I/O", cells(harness.Fig2)},
	{"fig7", "key-popularity curves of the four production workload models", harness.Fig7},
	{"fig8", "the (scaled) production workload inventory", harness.Fig8},
	{"fig9a", "production workloads on baseline and TRIAD: throughput and WA", cells(harness.Fig9A)},
	{"fig9b", "skew x read-mix x threads grid: throughput (9B) and WA (9C); fig9c is an alias", cells(harness.Fig9BC)},
	{"fig9d", "compacted bytes and % time in compaction at three skews", cells(harness.Fig9D)},
	{"fig10", "per-technique throughput breakdown", cells(harness.Fig10)},
	{"fig11", "per-technique WA and RA breakdown", cells(harness.Fig11)},
	{"fig10dev", "the fig10 uniform breakdown with device time charged per byte", cells(harness.Fig10Device)},
	{"sizetiered", "leveled vs size-tiered compaction, with and without TRIAD-DISK", cells(harness.SizeTiered)},
	{"shardscale", "throughput over shard counts 1..-shards, one device per shard", func(s harness.Scale, w io.Writer) error {
		// The sweep runs each count explicitly rather than inheriting
		// the global override.
		max := s.Shards
		s.Shards = 0
		_, err := harness.ShardScale(s, max, w)
		return err
	}},
	{"scanlocal", "scan throughput, hash vs range partitioning", func(s harness.Scale, w io.Writer) error {
		_, err := harness.ScanLocality(s, shardsOr4(s), w)
		return err
	}},
	{"conflict", "conflicting cross-shard batches from 1..8 writers under a concurrent snapshotter", func(s harness.Scale, w io.Writer) error {
		_, err := harness.Conflict(s, shardsOr4(s), w)
		return err
	}},
}

// experimentNames joins every experiment name, plus "all", with sep.
func experimentNames(sep string) string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), sep)
}

func main() {
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(out, "Experiments:")
		for _, e := range experiments {
			fmt.Fprintf(out, "  %-11s %s\n", e.name, e.doc)
		}
		fmt.Fprintf(out, "  %-11s every experiment above, in that order\n", "all")
	}
	var (
		exp     = flag.String("experiment", "all", "which experiment to run: "+experimentNames("|"))
		scale   = flag.String("scale", "quick", "quick (seconds per figure) or full (paper-like sizes)")
		keys    = flag.Uint64("keys", 0, "override synthetic key-space size")
		ops     = flag.Int64("ops", 0, "override timed operation count per run")
		threads = flag.Int("threads", 0, "override worker count for fixed-thread figures")
		shards  = flag.Int("shards", 1, "run figures on a sharded engine of N lsm instances; also the shardscale sweep's maximum and scanlocal's shard count")
		part    = flag.String("partitioner", "hash", "shard router for sharded runs: hash (balanced point ops) or range (shard-local scans)")
	)
	flag.Parse()
	switch *part {
	case "hash", "range":
	default:
		fmt.Fprintf(os.Stderr, "unknown partitioner %q (want hash or range)\n", *part)
		os.Exit(2)
	}

	var s harness.Scale
	switch *scale {
	case "quick":
		s = harness.QuickScale()
	case "full":
		s = harness.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *keys > 0 {
		s.Keys = *keys
	}
	if *ops > 0 {
		s.Ops = *ops
		s.ProdOps = *ops
	}
	if *threads > 0 {
		s.Threads = *threads
	}
	if *shards > 1 {
		s.Shards = *shards
	}
	s.Partitioner = *part

	name := strings.ToLower(*exp)
	if name == "fig9c" {
		name = "fig9b" // one run produces both figures
	}
	ran := false
	for _, e := range experiments {
		if name != "all" && name != e.name {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("=== %s ===\n", e.name)
		if err := e.run(s, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.name, time.Since(start).Seconds())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n", *exp, experimentNames(", "))
		os.Exit(2)
	}
}
