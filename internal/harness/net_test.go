package harness

import "testing"

// TestNetRunSmall drives the loopback server run at a tiny scale, with
// and without observability: every op is measured and latencies are sane.
func TestNetRunSmall(t *testing.T) {
	s := QuickScale()
	s.Keys = 4_000
	s.Ops = 6_000
	for _, noObs := range []bool{false, true} {
		res, err := NetRun(s, 4, 4, noObs, 0)
		if err != nil {
			t.Fatalf("noObs=%v: %v", noObs, err)
		}
		if res.Ops != s.Ops {
			t.Errorf("noObs=%v: measured %d ops, want %d", noObs, res.Ops, s.Ops)
		}
		if res.KOPS <= 0 || res.P99 <= 0 {
			t.Errorf("noObs=%v: KOPS = %v, P99 = %v", noObs, res.KOPS, res.P99)
		}
	}
}
