package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when a goroutine of this module outlives its
// tests: a pool, server or connection some test did not close.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestExample runs the example: it must exit cleanly, and its scan must
// have released the snapshot it pinned across the shards.
func TestExample(t *testing.T) {
	if out := runMain(t); !strings.Contains(out, "snapshots open after the scan: 0\n") {
		t.Errorf("want %q in the output:\n%s", "snapshots open after the scan: 0", out)
	}
}

// runMain runs main with its standard output captured.
func runMain(t *testing.T) string {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	main()
	os.Stdout = stdout
	w.Close()
	return <-read
}
