package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/vfs"
	"repro/internal/workload"
)

// SSDModel approximates a SATA SSD of the paper's testbed class
// (Samsung 843T): ~2 µs of per-request overhead (queued/batched 4 KB
// requests), ~1 GB/s of shared streaming bandwidth. All charges serialize
// through one shared Device, so background flush/compaction I/O steals
// device time from foreground operations — the §3 contention effect.
func SSDModel() vfs.LatencyModel {
	return vfs.LatencyModel{
		PerOp:   2 * time.Microsecond,
		PerByte: time.Nanosecond,
		Device:  &vfs.Device{},
	}
}

// Fig10Device re-runs the Figure 10 uniform-workload breakdown with
// device time charged for every byte of storage I/O. The paper measured
// on an SSD, where every byte a technique avoids saves device time; on
// the pure in-memory harness a flush costs only a memcpy, which
// understates TRIAD-LOG (whose entire contribution is eliminating the
// flush write). With an SSD-like latency model the avoided bytes have a
// price again and the paper's ordering emerges.
func Fig10Device(s Scale, w io.Writer) ([]Cell, error) {
	modes := []struct{ label, mode string }{
		{"TRIAD-LOG", "log"},
		{"TRIAD-DISK", "disk"},
		{"RocksDB", "baseline"},
		{"TRIAD", "triad"},
	}
	// Fewer ops: every byte now costs simulated time.
	ops := s.Ops / 2
	if ops == 0 {
		ops = 1000
	}
	var cells []Cell
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 10 (device variant): uniform 10r-90w on an SSD latency model (KOPS, p99)")
	fmt.Fprintln(tw, "engine\tKOPS\tp99")
	for _, m := range modes {
		engine := s.engine(m.mode)
		// The substrate's default block cache (RocksDB has one too):
		// without it TRIAD-LOG pays a disk read for each CL index block
		// on top of the log record itself.
		engine.BlockCacheBytes = 8 << 20
		spec := Spec{
			Name:                "dev " + m.label,
			Engine:              engine,
			Mix:                 workload.Mix{Dist: s.ws3(), ReadFraction: 0.1},
			Threads:             s.Threads,
			Ops:                 ops,
			PrepopulateFraction: 0.5,
			Latency:             SSDModel(),
			Seed:                1,
		}
		res, err := Run(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.label, err)
		}
		cells = append(cells, Cell{Label: m.label, Res: res})
		fmt.Fprintf(tw, "%s\t%.1f\t%s\n", m.label, res.KOPS, res.P99.Round(time.Microsecond))
	}
	return cells, tw.Flush()
}
