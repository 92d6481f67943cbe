package leakcheck

import (
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestGoroutines: a goroutine of this module that is still running is
// reported with its stack, and is not once it exits; the caller's own
// goroutine never is.
func TestGoroutines(t *testing.T) {
	if left := Goroutines(time.Second); left != "" {
		t.Fatalf("goroutines before the test:\n%s", left)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		<-stop
	}()
	if left := Goroutines(10 * time.Millisecond); !strings.Contains(left, "leakcheck.TestGoroutines") {
		t.Fatalf("a parked goroutine is not reported; got %q", left)
	}
	close(stop)
	<-stopped
	if left := Goroutines(time.Second); left != "" {
		t.Fatalf("an exited goroutine is reported:\n%s", left)
	}
}

// TestHandles counts what is open: a Create and an Open each add a
// handle, a handle's first Close removes it, a second Close does not.
func TestHandles(t *testing.T) {
	fs := vfs.NewMemFS()
	open := Handles(fs, nil)
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if n := open.Load(); n != 2 {
		t.Fatalf("%d handles open, want 2", n)
	}
	f.Close()
	f.Close()
	if n := open.Load(); n != 1 {
		t.Fatalf("%d handles open after one closed twice, want 1", n)
	}
	g.Close()
	if n := open.Load(); n != 0 {
		t.Fatalf("%d handles open after both closed", n)
	}
}
