package harness

import "testing"

// TestNetRunSmall drives the loopback server run at a tiny scale: every
// op is measured and latencies are sane.
func TestNetRunSmall(t *testing.T) {
	s := QuickScale()
	s.Keys = 4_000
	s.Ops = 6_000
	res, err := NetRun(s, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != s.Ops {
		t.Errorf("measured %d ops, want %d", res.Ops, s.Ops)
	}
	if res.KOPS <= 0 || res.P99 <= 0 {
		t.Errorf("KOPS = %v, P99 = %v", res.KOPS, res.P99)
	}
}
