// Command triadlint runs TRIAD's own static-analysis suite — the
// custom invariant checks in internal/lint — over a package pattern,
// printing findings in file:line:col form and exiting non-zero when
// there are any. It is the machine check for the lifetime conventions
// the store's correctness rests on: every epoch ticket reaches Commit
// or Abort, and every snapshot, iterator and cache handle is closed.
//
// Usage:
//
//	triadlint [packages]     (default ./...)
//
// The driver is standalone rather than a `go vet -vettool` plugin
// because the vet protocol lives in golang.org/x/tools and this
// repository deliberately carries no module dependencies; the analyzer
// shapes mirror go/analysis so they could be rehosted if that changes.
// Test files are analyzed too: the invariants hold in tests as much as
// in the server (a leaked epoch ticket stalls a test store just the
// same).
package main

import (
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(patterns []string, stdout, stderr *os.File) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := lint.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "triadlint: %v\n", err)
		return 2
	}
	diags := lint.Run(pkgs, lint.Analyzers())
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "triadlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
