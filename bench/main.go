// Command bench is the repository's benchmark: four fixed-size workloads
// against the sharded TRIAD store, measured from outside through its
// public API and a counting filesystem. See README.md.
//
//	go run . -workload ingest_uniform -seed 1 [-seconds 16] [-trace 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	cfg := config{scale: 1, keys: defaultKeys, outDir: "out"}
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "workload name (ingest_uniform, update_skewed, read_zipf, net_mixed)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 16, "sizes the rounds: each is a fixed operation count per second asked for")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes out/<workload>.trace.json")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// The measurement rules: both cores, default collector.
	runtime.GOMAXPROCS(workers)
	debug.SetGCPercent(100)

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricJSON),
	}
	reported := endToEnd
	if cfg.trace {
		reported = perLayer
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := rep.vals[d.name]; ok {
				fmt.Printf("%-40s %16.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	fmt.Printf("failed %d of %d attempted\n", rep.failed, rep.attempted)
	for _, d := range reported {
		out.Metrics[d.name] = metricJSON{Value: rep.vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.failed != 0 {
		os.Exit(1)
	}
}
