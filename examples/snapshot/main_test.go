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

// TestExample runs the example: it must exit cleanly, its snapshot must
// stay open while a scan opened from it is, and closing the scan must
// leave none open.
func TestExample(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{"open snapshots with the scan open:    1\n", "open snapshots after the scan closed: 0\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("want %q in the output:\n%s", want, out)
		}
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
