// Package leakcheck holds the leak checks the tests of this module run.
// A leaked snapshot or iterator pins zombie tables and the commit logs
// their CL-SSTables index, a leaked epoch ticket parks the commit
// watermark for good, and a leaked pool, server or connection leaves
// goroutines behind; each is reclaimed only by an explicit Close. So a
// test that drops one must fail:
//
//   - Main, from a package's TestMain, fails the package when a goroutine
//     running this module's code outlives its tests;
//   - NoGoroutines does the same inside one test;
//   - Handles counts the file handles a MemFS has open, and ShardMemFS
//     the ones of a sharded store's filesystems, for the checks that a
//     closed store left none.
//
// The per-store checks (no open snapshot, no outstanding ticket) live in
// each package's test opener, next to the internals they read.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// module is this module's path: a goroutine with a frame (or a creator) in
// it runs the module's code.
const module = "repro"

// grace bounds the wait for goroutines to exit: a closed pool's workers
// have signalled done but may not have left the scheduler yet.
const grace = 5 * time.Second

// Main runs m's tests and benchmarks and exits with their result. When
// they pass, it then waits for every goroutine running this module's code
// to exit; if any is left after the grace period, it prints their stacks
// and fails the package. After a failure it skips the check: a failed
// test may leave a store open on purpose.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := Goroutines(grace); left != "" {
			fmt.Fprintf(os.Stderr, "leakcheck: goroutines outlived the tests:\n\n%s", left)
			code = 1
		}
	}
	os.Exit(code)
}

// NoGoroutines fails t unless every goroutine running this module's code,
// other than t's own and the test runner's, exits within the grace
// period. Tests in this module do not run in parallel, so any other such
// goroutine belongs to something the test left running.
func NoGoroutines(t testing.TB) {
	t.Helper()
	if left := Goroutines(grace); left != "" {
		t.Fatalf("goroutines left running:\n\n%s", left)
	}
}

// Goroutines waits up to d for the goroutines that run this module's code
// to exit, and returns the stacks of those still running then ("" if
// none). The caller's goroutine and the test runner's (a goroutine waiting
// in testing's M.Run or tRunner) do not count.
func Goroutines(d time.Duration) string {
	deadline := time.Now().Add(d)
	for {
		left := moduleGoroutines()
		if len(left) == 0 {
			return ""
		}
		if time.Now().After(deadline) {
			return strings.Join(left, "\n\n") + "\n"
		}
		time.Sleep(time.Millisecond)
	}
}

// moduleGoroutines returns the stack of every goroutine but the caller's
// and the test runner's that has a frame or a creator in this module.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's goroutine comes first.
	stacks := bytes.Split(buf, []byte("\n\n"))[1:]
	var left []string
	for _, s := range stacks {
		if g := string(s); runsModule(g) && !strings.Contains(g, "\ntesting.tRunner(") && !strings.Contains(g, "\ntesting.(*M).") {
			left = append(left, g)
		}
	}
	return left
}

// runsModule reports whether stack (one goroutine's, as runtime.Stack
// prints it) has a frame or a creator in this module.
func runsModule(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		line = strings.TrimPrefix(line, "created by ")
		if strings.HasPrefix(line, module+"/") || strings.HasPrefix(line, module+".") {
			return true
		}
	}
	return false
}

// ShardMemFS returns a NewFS factory, as shard.Options takes, handing
// shard i of shards a fresh MemFS whose handles are counted, and a check
// that fails t if any of them still has a handle open. Call the check
// once the store has closed.
func ShardMemFS(t testing.TB, shards int) (newFS func(int) (vfs.FS, error), checkClosed func()) {
	fss := make([]vfs.FS, shards)
	open := make([]*atomic.Int64, shards)
	for i := range fss {
		fs := vfs.NewMemFS()
		fss[i], open[i] = fs, Handles(fs, nil)
	}
	newFS = func(i int) (vfs.FS, error) { return fss[i], nil }
	checkClosed = func() {
		t.Helper()
		for i, c := range open {
			if n := c.Load(); n != 0 {
				t.Errorf("shard %d: %d file handles left open after Close", i, n)
			}
		}
	}
	return newFS, checkClosed
}

// Handles counts the file handles open on fs from now on, which MemFS
// itself does not track: every Create and Open adds one, a handle's first
// Close takes one away. It replaces fs's hooks; before, if not nil, is the
// new Before hook.
func Handles(fs *vfs.MemFS, before func(vfs.Op) error) *atomic.Int64 {
	var open atomic.Int64
	fs.SetHooks(vfs.Hooks{Before: before, After: func(op vfs.Op) {
		switch op.Kind {
		case vfs.OpCreate, vfs.OpOpen:
			open.Add(1)
		case vfs.OpClose:
			open.Add(-1)
		}
	}})
	return &open
}
