// Command triadbench regenerates the tables and figures of the TRIAD
// paper's evaluation (§5) against this reproduction: one RocksDB-style
// baseline instance against one TRIAD instance, as the paper has it.
//
// Usage:
//
//	triadbench -experiment fig9a            # one figure, quick scale
//	triadbench -experiment all -scale full  # everything, paper-like scale
//
// Run with -h for the experiment list (it is generated from the table in
// this file).
package main

import (
	"errors"
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

type experiment struct {
	name, doc string
	run       func(harness.Scale, io.Writer) error
}

// experiments is the one list of what triadbench can run: the flag help,
// the unknown-experiment error and "all" (table order) are made from it.
var experiments = []experiment{
	{"fig2", "baseline throughput with and without background I/O", cells(harness.Fig2)},
	{"fig7", "key-popularity curves of the four production workload models", harness.Fig7},
	{"fig8", "the (scaled) production workload inventory", harness.Fig8},
	{"fig9a", "production workloads on baseline and TRIAD: throughput and WA", cells(harness.Fig9A)},
	{"fig9b", "skew x read-mix x threads grid: throughput (9B) and WA (9C); fig9c is an alias", cells(harness.Fig9BC)},
	{"fig9d", "compacted bytes and % time in compaction at three skews", cells(harness.Fig9D)},
	{"fig10", "per-technique throughput breakdown", cells(harness.Fig10)},
	{"fig11", "per-technique WA and RA breakdown", cells(harness.Fig11)},
	{"fig10dev", "the fig10 uniform breakdown with device time charged per byte", cells(harness.Fig10Device)},
}

// experimentNames joins every experiment name, plus "all", with sep.
func experimentNames(sep string) string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), sep)
}

// selected returns the experiments -experiment name asks for, in table
// order; none for an unknown name.
func selected(name string) []experiment {
	name = strings.ToLower(name)
	if name == "fig9c" {
		name = "fig9b" // one run produces both figures
	}
	var out []experiment
	for _, e := range experiments {
		if name == "all" || name == e.name {
			out = append(out, e)
		}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected, returning
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("triadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage of triadbench:")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "Experiments:")
		for _, e := range experiments {
			fmt.Fprintf(stderr, "  %-11s %s\n", e.name, e.doc)
		}
		fmt.Fprintf(stderr, "  %-11s every experiment above, in that order\n", "all")
	}
	var (
		exp     = fs.String("experiment", "all", "which experiment to run: "+experimentNames("|"))
		scale   = fs.String("scale", "quick", "quick (seconds per figure) or full (paper-like sizes)")
		keys    = fs.Uint64("keys", 0, "override synthetic key-space size")
		ops     = fs.Int64("ops", 0, "override timed operation count per run")
		threads = fs.Int("threads", 0, "override worker count for fixed-thread figures")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var s harness.Scale
	switch *scale {
	case "quick":
		s = harness.QuickScale()
	case "full":
		s = harness.FullScale()
	default:
		fmt.Fprintf(stderr, "unknown scale %q (want quick, full)\n", *scale)
		return 2
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

	todo := selected(*exp)
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q (want %s)\n", *exp, experimentNames(", "))
		return 2
	}
	for _, e := range todo {
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s ===\n", e.name)
		if err := e.run(s, stdout); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", e.name, time.Since(start).Seconds())
	}
	return 0
}
