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

// TestExample runs the example: it must exit cleanly, and closing its
// iterator and then its snapshot must leave none open.
func TestExample(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{"open snapshots after Close:  0\n", "shard pins after Close:      0\n"} {
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
