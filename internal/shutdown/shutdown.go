// Package shutdown is triadserver's small signal-handling helper: a
// context that cancels on SIGINT or SIGTERM so main loops can drain and
// close the store cleanly instead of dying mid-write. A second signal
// force-exits with the conventional status 130 — the escape hatch when a
// drain hangs.
package shutdown

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Notify returns a context cancelled by the first SIGINT/SIGTERM. The
// returned stop function releases the signal handler (restoring default
// die-on-signal behavior); call it once the clean path has run.
//
//	ctx, stop := shutdown.Notify()
//	defer stop()
//	...
//	select {
//	case <-ctx.Done():  // drain, flush, close
//	}
func Notify() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	stopped := make(chan struct{})
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			cancel()
		case <-stopped:
			return
		}
		// Second signal while the clean path is still draining: the
		// operator is insisting.
		select {
		case <-ch:
			os.Exit(130)
		case <-stopped:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			close(stopped)
			cancel()
		})
	}
	return ctx, stop
}
