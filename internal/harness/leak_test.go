package harness

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when a goroutine of this module outlives its
// tests: a pool, server or connection some test did not close.
func TestMain(m *testing.M) { leakcheck.Main(m) }
