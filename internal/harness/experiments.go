package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/lsm"
	"repro/internal/workload"
)

// Scale sizes an experiment suite. The paper's full configuration (4 MB
// memtable, 1 M keys, hours of runtime on a 20-core Xeon) is scaled down
// so every figure regenerates in seconds; both systems scale identically,
// so the comparisons (who wins, by what factor) are preserved.
type Scale struct {
	// Keys is the synthetic key-space size (paper: 1,000,000).
	Keys uint64
	// Ops is the timed operation count per run.
	Ops int64
	// ProdScale divides the production workload sizes of Figure 8.
	ProdScale uint64
	// ProdOps is the timed operation count for production runs.
	ProdOps int64
	// MemtableBytes is the memory-component budget (paper: 4 MB).
	MemtableBytes int64
	// Threads is the worker count for fixed-thread figures (paper: 8).
	Threads int
}

// QuickScale regenerates every figure in roughly a minute total.
func QuickScale() Scale {
	return Scale{
		Keys:          60_000,
		Ops:           120_000,
		ProdScale:     1000,
		ProdOps:       150_000,
		MemtableBytes: 512 << 10,
		Threads:       8,
	}
}

// FullScale approaches the paper's synthetic configuration (1 M keys,
// 4 MB memtable); expect minutes per figure.
func FullScale() Scale {
	return Scale{
		Keys:          1_000_000,
		Ops:           2_000_000,
		ProdScale:     100,
		ProdOps:       2_000_000,
		MemtableBytes: 4 << 20,
		Threads:       8,
	}
}

// engine returns the engine options for a mode name:
// "baseline", "triad", "mem", "disk", "log".
func (s Scale) engine(mode string) lsm.Options {
	o := lsm.DefaultOptions(nil)
	o.MemtableBytes = s.MemtableBytes
	o.CommitLogBytes = 4 * s.MemtableBytes
	o.FlushThresholdBytes = s.MemtableBytes / 2
	o.BaseLevelBytes = 8 * s.MemtableBytes
	o.TargetFileBytes = s.MemtableBytes
	switch mode {
	case "triad":
		o.TriadMem, o.TriadDisk, o.TriadLog = true, true, true
	case "mem":
		o.TriadMem = true
	case "disk":
		o.TriadDisk = true
	case "log":
		o.TriadLog = true
	}
	return o
}

// Skew profiles of §5.3.
func (s Scale) ws1() workload.KeyDist {
	return workload.HotCold{N: s.Keys, HotFraction: 0.01, HotAccess: 0.99}
}
func (s Scale) ws2() workload.KeyDist {
	return workload.HotCold{N: s.Keys, HotFraction: 0.20, HotAccess: 0.80}
}
func (s Scale) ws3() workload.KeyDist { return workload.Uniform{N: s.Keys} }
func (s Scale) ws1090() workload.KeyDist {
	return workload.HotCold{N: s.Keys, HotFraction: 0.10, HotAccess: 0.90}
}

// Cell is one (spec, result) pair of an experiment grid.
type Cell struct {
	Label string
	Res   Result
}

// runCell builds and runs one spec.
func (s Scale) runCell(label, mode string, dist workload.KeyDist, readFrac float64, threads int, ops int64, prepop float64, disableBG bool) (Cell, error) {
	spec := Spec{
		Name:                label,
		Engine:              s.engine(mode),
		Mix:                 workload.Mix{Dist: dist, ReadFraction: readFrac},
		Threads:             threads,
		Ops:                 ops,
		PrepopulateFraction: prepop,
		DisableBGAfterLoad:  disableBG,
		Seed:                1,
	}
	res, err := Run(spec)
	if err != nil {
		return Cell{}, fmt.Errorf("%s: %w", label, err)
	}
	res.Name = label
	return Cell{Label: label, Res: res}, nil
}

// --- Figure 2: background I/O impact on throughput ---

// Fig2 compares the baseline engine against the same engine with
// background I/O disabled, for uniform/skewed × 50r-50w/10r-90w at 8
// workers over a fully pre-populated tree.
func Fig2(s Scale, w io.Writer) ([]Cell, error) {
	type wl struct {
		name     string
		dist     workload.KeyDist
		readFrac float64
	}
	wls := []wl{
		{"Uniform 50r-50w", s.ws3(), 0.5},
		{"Uniform 10r-90w", s.ws3(), 0.1},
		{"Skewed 50r-50w", s.ws1(), 0.5},
		{"Skewed 10r-90w", s.ws1(), 0.1},
	}
	var cells []Cell
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 2: Background I/O impact on throughput (KOPS)")
	fmt.Fprintln(tw, "workload\tRocksDB\tRocksDB No BG I/O\tratio")
	for _, x := range wls {
		base, err := s.runCell(x.name+" base", "baseline", x.dist, x.readFrac, s.Threads, s.Ops, 1.0, false)
		if err != nil {
			return nil, err
		}
		nobg, err := s.runCell(x.name+" nobg", "baseline", x.dist, x.readFrac, s.Threads, s.Ops, 1.0, true)
		if err != nil {
			return nil, err
		}
		cells = append(cells, base, nobg)
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.2fx\n", x.name, base.Res.KOPS, nobg.Res.KOPS, nobg.Res.KOPS/base.Res.KOPS)
	}
	return cells, tw.Flush()
}

// --- Figures 7 and 8: production workload shapes ---

// Fig7 prints the key-popularity curves of the four production workload
// models (log-scale probabilities at sampled ranks).
func Fig7(s Scale, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 7: production workload key access probabilities (by decreasing popularity)")
	fmt.Fprintln(tw, "rank-fraction\tW1\tW2\tW3\tW4")
	var ps [4]workload.Production
	for i := 1; i <= 4; i++ {
		p, err := workload.ProductionWorkload(i, s.ProdScale)
		if err != nil {
			return err
		}
		ps[i-1] = p
	}
	for _, frac := range []float64{0.001, 0.005, 0.02, 0.05, 0.15, 0.40, 0.80, 0.99} {
		fmt.Fprintf(tw, "%.3f", frac)
		for _, p := range ps {
			i := uint64(frac * float64(p.Keys()))
			fmt.Fprintf(tw, "\t%.2e", p.AccessProbability(i))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig8 prints the (scaled) workload inventory table.
func Fig8(s Scale, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Figure 8: production workloads (scaled 1/%d)\n", s.ProdScale)
	fmt.Fprintln(tw, "\tWkld 1\tWkld 2\tWkld 3\tWkld 4")
	fmt.Fprint(tw, "Updates")
	for i := 1; i <= 4; i++ {
		p, _ := workload.ProductionWorkload(i, s.ProdScale)
		fmt.Fprintf(tw, "\t%d", p.Updates)
	}
	fmt.Fprint(tw, "\nKeys")
	for i := 1; i <= 4; i++ {
		p, _ := workload.ProductionWorkload(i, s.ProdScale)
		fmt.Fprintf(tw, "\t%d", p.Keys())
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// --- Figure 9A: production throughput and WA ---

// Fig9A runs the four production workloads on baseline and TRIAD.
func Fig9A(s Scale, w io.Writer) ([]Cell, error) {
	var cells []Cell
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 9A: production workloads, 8 threads (KOPS and write amplification)")
	fmt.Fprintln(tw, "workload\tRocksDB KOPS\tTRIAD KOPS\tgain\tRocksDB WA\tTRIAD WA")
	for i := 1; i <= 4; i++ {
		p, err := workload.ProductionWorkload(i, s.ProdScale)
		if err != nil {
			return nil, err
		}
		ops := s.ProdOps
		base, err := s.runCell(fmt.Sprintf("W%d base", i), "baseline", p, 0, s.Threads, ops, 0.5, false)
		if err != nil {
			return nil, err
		}
		triad, err := s.runCell(fmt.Sprintf("W%d triad", i), "triad", p, 0, s.Threads, ops, 0.5, false)
		if err != nil {
			return nil, err
		}
		cells = append(cells, base, triad)
		fmt.Fprintf(tw, "Prod Wkld %d\t%.1f\t%.1f\t+%.0f%%\t%.2f\t%.2f\n",
			i, base.Res.KOPS, triad.Res.KOPS, 100*(triad.Res.KOPS/base.Res.KOPS-1), base.Res.WA, triad.Res.WA)
	}
	return cells, tw.Flush()
}

// --- Figures 9B and 9C: synthetic throughput and WA grids ---

// ThreadGrid is the paper's x axis.
var ThreadGrid = []int{1, 2, 4, 8, 12, 16}

// Fig9BC runs the skew × read-mix × threads grid on both engines,
// printing throughput (9B) and write amplification (9C).
func Fig9BC(s Scale, w io.Writer) ([]Cell, error) {
	type wl struct {
		name     string
		dist     workload.KeyDist
		readFrac float64
	}
	wls := []wl{
		{"Skew 1%-99% 10r-90w", s.ws1(), 0.1},
		{"Skew 20%-80% 10r-90w", s.ws2(), 0.1},
		{"No Skew 10r-90w", s.ws3(), 0.1},
		{"Skew 1%-99% 50r-50w", s.ws1(), 0.5},
		{"Skew 20%-80% 50r-50w", s.ws2(), 0.5},
		{"No Skew 50r-50w", s.ws3(), 0.5},
	}
	var cells []Cell
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 9B/9C: synthetic workloads across thread counts (KOPS / WA)")
	fmt.Fprintln(tw, "workload\tthreads\tRocksDB KOPS\tTRIAD KOPS\tRocksDB WA\tTRIAD WA")
	for _, x := range wls {
		for _, th := range ThreadGrid {
			base, err := s.runCell(fmt.Sprintf("%s t%d base", x.name, th), "baseline", x.dist, x.readFrac, th, s.Ops, 0.5, false)
			if err != nil {
				return nil, err
			}
			triad, err := s.runCell(fmt.Sprintf("%s t%d triad", x.name, th), "triad", x.dist, x.readFrac, th, s.Ops, 0.5, false)
			if err != nil {
				return nil, err
			}
			cells = append(cells, base, triad)
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.2f\t%.2f\n",
				x.name, th, base.Res.KOPS, triad.Res.KOPS, base.Res.WA, triad.Res.WA)
		}
	}
	return cells, tw.Flush()
}

// --- Figure 9D: compacted bytes and % time in compaction ---

// Fig9D runs the three skews at 8 threads, 10r-90w.
func Fig9D(s Scale, w io.Writer) ([]Cell, error) {
	type wl struct {
		name string
		dist workload.KeyDist
	}
	wls := []wl{
		{"Skew 1%-99%", s.ws1()},
		{"Skew 20%-80%", s.ws2()},
		{"No Skew", s.ws3()},
	}
	var cells []Cell
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 9D: compacted MB and % time in compaction (8 threads, 10r-90w)")
	fmt.Fprintln(tw, "workload\tTRIAD MB\tRocksDB MB\tTRIAD pct-comp\tRocksDB pct-comp")
	for _, x := range wls {
		triad, err := s.runCell(x.name+" triad", "triad", x.dist, 0.1, s.Threads, s.Ops, 0.5, false)
		if err != nil {
			return nil, err
		}
		base, err := s.runCell(x.name+" base", "baseline", x.dist, 0.1, s.Threads, s.Ops, 0.5, false)
		if err != nil {
			return nil, err
		}
		cells = append(cells, triad, base)
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f%%\t%.1f%%\n",
			x.name, triad.Res.CompactedMB, base.Res.CompactedMB, triad.Res.PctCompaction, base.Res.PctCompaction)
	}
	return cells, tw.Flush()
}

// --- Figure 10: per-technique throughput breakdown ---

// Fig10 runs uniform and highly-skewed workloads (10r-90w, 16 threads) on
// the single-technique engines.
func Fig10(s Scale, w io.Writer) (map[string][]Cell, error) {
	modes := []struct{ label, mode string }{
		{"TRIAD-MEM", "mem"},
		{"TRIAD-DISK", "disk"},
		{"TRIAD-LOG", "log"},
		{"RocksDB", "baseline"},
		{"TRIAD", "triad"},
	}
	out := map[string][]Cell{}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 10: throughput breakdown by technique (16 threads, 10r-90w; KOPS)")
	fmt.Fprintln(tw, "workload\tTRIAD-MEM\tTRIAD-DISK\tTRIAD-LOG\tRocksDB\tTRIAD")
	for _, x := range []struct {
		name string
		dist workload.KeyDist
	}{{"No Skew", s.ws3()}, {"Skew 1-99", s.ws1()}} {
		row := x.name
		for _, m := range modes {
			c, err := s.runCell(x.name+" "+m.label, m.mode, x.dist, 0.1, 16, s.Ops, 0.5, false)
			if err != nil {
				return nil, err
			}
			out[x.name] = append(out[x.name], c)
			row += fmt.Sprintf("\t%.1f", c.Res.KOPS)
		}
		fmt.Fprintln(tw, row)
	}
	return out, tw.Flush()
}

// --- Figure 11: per-technique WA and RA breakdown ---

// Fig11 runs four skews on the single-technique engines, reporting WA
// normalized to the baseline, and the RA breakdown on the uniform
// 10%-read workload.
func Fig11(s Scale, w io.Writer) (map[string][]Cell, error) {
	skews := []struct {
		name string
		dist workload.KeyDist
	}{
		{"1% data - 99% time", s.ws1()},
		{"10% data - 90% time", s.ws1090()},
		{"20% data - 80% time", s.ws2()},
		{"no skew", s.ws3()},
	}
	modes := []struct{ label, mode string }{
		{"TRIAD-MEM", "mem"},
		{"TRIAD-DISK", "disk"},
		{"TRIAD-LOG", "log"},
		{"TRIAD", "triad"},
		{"RocksDB", "baseline"},
	}
	out := map[string][]Cell{}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 11: WA normalized to RocksDB (8 threads, 10r-90w)")
	fmt.Fprintln(tw, "workload\tTRIAD-MEM\tTRIAD-DISK\tTRIAD-LOG\tTRIAD\tRocksDB")
	for _, x := range skews {
		var base Cell
		var row []Cell
		for _, m := range modes {
			c, err := s.runCell(x.name+" "+m.label, m.mode, x.dist, 0.1, s.Threads, s.Ops, 0.5, false)
			if err != nil {
				return nil, err
			}
			row = append(row, c)
			if m.mode == "baseline" {
				base = c
			}
		}
		out[x.name] = row
		line := x.name
		for _, c := range row {
			line += fmt.Sprintf("\t%.2f", c.Res.WA/base.Res.WA)
		}
		fmt.Fprintln(tw, line)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	// RA breakdown on uniform, 10% reads.
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nFigure 11 (lower right): read amplification, uniform, 10 percent reads")
	fmt.Fprintln(tw, "engine\tRA")
	for _, c := range out["no skew"] {
		fmt.Fprintf(tw, "%s\t%.2f\n", c.Label, c.Res.RA)
	}
	return out, tw.Flush()
}
