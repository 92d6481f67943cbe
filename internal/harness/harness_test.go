package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/workload"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		Keys:          5_000,
		Ops:           10_000,
		ProdScale:     10_000,
		ProdOps:       10_000,
		MemtableBytes: 128 << 10,
		Threads:       4,
	}
}

func TestRunBasic(t *testing.T) {
	s := tinyScale()
	res, err := Run(Spec{
		Name:                "basic",
		Engine:              s.engine("triad"),
		Mix:                 workload.Mix{Dist: workload.Uniform{N: s.Keys}, ReadFraction: 0.2},
		Threads:             4,
		Ops:                 s.Ops,
		PrepopulateFraction: 0.5,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.KOPS <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Snap.UserWrites == 0 || res.Snap.UserReads == 0 {
		t.Fatalf("no user ops recorded: %+v", res.Snap)
	}
	// Writes must have been logged during the window.
	if res.LoggedMB <= 0 {
		t.Fatal("no logged bytes in measurement window")
	}
}

func TestRunDisableBG(t *testing.T) {
	s := tinyScale()
	res, err := Run(Spec{
		Name:                "nobg",
		Engine:              s.engine("baseline"),
		Mix:                 workload.Mix{Dist: workload.Uniform{N: s.Keys}, ReadFraction: 0.1},
		Threads:             2,
		Ops:                 s.Ops,
		PrepopulateFraction: 1.0,
		DisableBGAfterLoad:  true,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With background I/O disabled, nothing is flushed or compacted in
	// the timed window.
	if res.FlushedMB != 0 || res.CompactedMB != 0 {
		t.Fatalf("no-BG run flushed %.2f MB / compacted %.2f MB", res.FlushedMB, res.CompactedMB)
	}
}

func TestEngineModes(t *testing.T) {
	s := tinyScale()
	for mode, want := range map[string][3]bool{
		"baseline": {false, false, false},
		"triad":    {true, true, true},
		"mem":      {true, false, false},
		"disk":     {false, true, false},
		"log":      {false, false, true},
	} {
		o := s.engine(mode)
		got := [3]bool{o.TriadMem, o.TriadDisk, o.TriadLog}
		if got != want {
			t.Errorf("%s toggles = %v, want %v", mode, got, want)
		}
	}
}

func TestFig7Fig8Print(t *testing.T) {
	s := tinyScale()
	var buf bytes.Buffer
	if err := Fig7(s, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "W1") || !strings.Contains(buf.String(), "W4") {
		t.Fatalf("Fig7 output missing workloads:\n%s", buf.String())
	}
	buf.Reset()
	if err := Fig8(s, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Updates") || !strings.Contains(buf.String(), "Keys") {
		t.Fatalf("Fig8 output malformed:\n%s", buf.String())
	}
}

// TestRunWithDeletes drives a mix including deletes and checks the
// latency histogram is populated.
func TestRunWithDeletes(t *testing.T) {
	s := tinyScale()
	res, err := Run(Spec{
		Name:                "deletes",
		Engine:              s.engine("triad"),
		Mix:                 workload.Mix{Dist: workload.Uniform{N: s.Keys}, ReadFraction: 0.2, DeleteFraction: 0.1},
		Threads:             4,
		Ops:                 s.Ops,
		PrepopulateFraction: 0.5,
		Seed:                2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lat.Count() == 0 {
		t.Fatal("latency histogram empty")
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Fatalf("quantiles inconsistent: p50=%v p99=%v p999=%v", res.P50, res.P99, res.P999)
	}
}

// TestFig2Shape runs the (tiny) Figure 2 experiment and checks the
// paper's claim: removing background I/O helps throughput clearly on the
// uniform write-heavy workload. The race detector slows every cell alike
// and leaves that ratio to noise, so under it only the counts are checked:
// a no-BG cell flushes and compacts nothing, while its uniform write-heavy
// BG counterpart compacts.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	s := tinyScale()
	var buf bytes.Buffer
	cells, err := Fig2(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("Fig2 returned %d cells", len(cells))
	}
	for i := 1; i < len(cells); i += 2 {
		if m := cells[i].Res.Snap; m.Compactions != 0 || m.Flushes != 0 {
			t.Errorf("%s: %d compactions, %d flushes with background I/O off", cells[i].Label, m.Compactions, m.Flushes)
		}
	}
	// Uniform 10r-90w pair: no-BG should be clearly faster.
	base, nobg := cells[2].Res, cells[3].Res
	if base.Snap.Compactions == 0 {
		t.Errorf("%s ran no compaction: nothing for the no-BG cell to save", cells[2].Label)
	}
	if !raceEnabled && nobg.KOPS < base.KOPS*1.1 {
		t.Errorf("no-BG speedup only %.2fx on uniform 10r-90w", nobg.KOPS/base.KOPS)
	}
}

// TestFig9DShape checks the headline TRIAD claim at tiny scale: TRIAD
// compacts fewer bytes than the baseline on every skew, dramatically so
// under high skew.
func TestFig9DShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	s := tinyScale()
	s.Ops = 30_000 // enough to trigger compactions
	var buf bytes.Buffer
	cells, err := Fig9D(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(cells); i += 2 {
		triad, base := cells[i].Res, cells[i+1].Res
		if triad.CompactedMB > base.CompactedMB {
			t.Errorf("%s: TRIAD compacted more than baseline (%.1f > %.1f MB)",
				cells[i].Label, triad.CompactedMB, base.CompactedMB)
		}
	}
	// High-skew case: order-of-magnitude difference.
	if cells[0].Res.CompactedMB > cells[1].Res.CompactedMB/2 {
		t.Errorf("high skew: TRIAD %.2f MB vs baseline %.2f MB — expected large gap",
			cells[0].Res.CompactedMB, cells[1].Res.CompactedMB)
	}
}
