// Command selfcheck runs the whole benchmark several times over as
// independent sets of the same code and checks that the sets agree: for
// every end-to-end metric of every workload it prints each set's median,
// the spread of the runs inside a set (distance between the quartiles as
// a share of the median) and the widest difference between set medians,
// beside the metric's bound from BENCHMARK.json. It exits non-zero when a
// difference or a spread exceeds its bound.
//
//	cd bench && go run ./selfcheck -sets 2 -runs 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// root is the repository root, which holds BENCHMARK.json and is where
// its command runs; selfcheck itself runs from bench/.
const root = ".."

type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct bool `json:"correct"`
	Failed  int64
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	sets := flag.Int("sets", 2, "independent sets of runs")
	runs := flag.Int("runs", 10, "runs per workload in a set, each with its own seed")
	flag.Parse()

	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		fatal(err)
	}

	// values[workload][metric][set] = the set's run values
	values := make(map[string]map[string][][]float64)
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
		values[w.Name] = make(map[string][][]float64)
	}
	for s := 0; s < *sets; s++ {
		for _, w := range workloads {
			for r := 0; r < *runs; r++ {
				seed := s*1000 + r + 1
				res, err := runOnce(b, w, seed)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", w, seed, err))
				}
				for name, m := range res.Metrics {
					vs := values[w][name]
					for len(vs) <= s {
						vs = append(vs, nil)
					}
					vs[s] = append(vs[s], m.Value)
					values[w][name] = vs
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", s+1, w, seed)
			}
		}
	}

	bad := 0
	fmt.Printf("%-15s %-14s %s  %8s %8s %6s\n", "workload", "metric", "set medians (spread)", "worst", "bound", "")
	for _, w := range workloads {
		for _, m := range b.EndToEnd {
			var meds []float64
			var cells []string
			worstSpread := 0.0
			for _, vs := range values[w][m.Name] {
				med := median(vs)
				q1, q3 := quartiles(vs)
				spread := (q3 - q1) / med
				worstSpread = max(worstSpread, spread)
				meds = append(meds, med)
				cells = append(cells, fmt.Sprintf("%.5g (%.1f%%)", med, 100*spread))
			}
			// The widest difference, measured the way a regression is:
			// how much worse the worst set median is than the best.
			best, worst := slices.Max(meds), slices.Min(meds)
			if m.Better == "lower" {
				best, worst = worst, best
			}
			diff := abs(worst-best) / best
			verdict := "ok"
			if diff > m.Bound || worstSpread > m.Bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-15s %-14s %s  %7.1f%% %7.1f%% %6s\n", w, m.Name, strings.Join(cells, "  "), 100*max(diff, worstSpread), 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric(s) outside their bound\n", bad)
		os.Exit(1)
	}
}

func runOnce(b benchmarkFile, workload string, seed int) (*result, error) {
	args := append(slices.Clone(b.Command[1:]),
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(b.RunSeconds), "--trace", "0")
	cmd := exec.Command(b.Command[0], args...)
	cmd.Dir = root
	// Output keeps the run's standard error (its per-round lines and any
	// failure) in the error it returns.
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return nil, fmt.Errorf("%w: %s", err, exit.Stderr)
		}
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d operations failed", res.Failed)
	}
	return &res, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "selfcheck:", err)
	os.Exit(1)
}
