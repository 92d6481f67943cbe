package vfs

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyModelChargesTime(t *testing.T) {
	fs := NewMemFS()
	fs.SetHooks(Hooks{Before: LatencyModel{PerOp: 2 * time.Millisecond}.Before})
	f, _ := fs.Create("x")
	start := time.Now()
	f.Write([]byte("data"))
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("write took %v, want >= 2ms", el)
	}
}

func TestDeviceSerializesCharges(t *testing.T) {
	dev := &Device{}
	// 8 goroutines each occupy 5ms: a shared device must take ~40ms,
	// not ~5ms (which independent sleeps would allow).
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev.Occupy(5 * time.Millisecond)
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 35*time.Millisecond {
		t.Fatalf("8x5ms on one device took %v, want >= 35ms", el)
	}
}

func TestDeviceSmallChargesEnforceAggregateRate(t *testing.T) {
	dev := &Device{}
	// 1000 charges of 50µs = 50ms of device time, each individually
	// below the sleep granularity. The aggregate must still take ≈50ms.
	start := time.Now()
	for i := 0; i < 1000; i++ {
		dev.Occupy(50 * time.Microsecond)
	}
	el := time.Since(start)
	if el < 40*time.Millisecond {
		t.Fatalf("1000x50µs took %v, want ≈50ms", el)
	}
}

func TestDeviceIdleDoesNotAccumulate(t *testing.T) {
	dev := &Device{}
	dev.Occupy(time.Millisecond)
	time.Sleep(5 * time.Millisecond) // device drains
	start := time.Now()
	dev.Occupy(time.Millisecond)
	if el := time.Since(start); el > 4*time.Millisecond {
		t.Fatalf("idle device charged backlog: %v", el)
	}
}
