// Package lint is TRIAD's own static-analysis suite: a set of
// analyzers that machine-check invariants the store's correctness
// rests on but the compiler cannot see. Each analyzer encodes one
// hand-enforced convention that has bitten (or would bite) at runtime:
//
//   - ticketleak: every epoch ticket (*shard.Commit) returned by
//     Prepare must reach Commit() or Abort() on all control-flow
//     paths. A leaked ticket parks the committed watermark forever —
//     every later write and snapshot queued behind it stalls.
//   - mustclose: snapshots, iterators and block-cache handles pin real
//     resources (memtable versions, zombie sstables, cache bytes);
//     each constructor result must be closed/released on all paths or
//     handed to a tracked owner.
//
// An analyzer stays only while it catches a defect no test does. The
// obs types' nil-receiver safety is checked by TestTracerNilSafety in
// internal/obs, and metric naming by TestMetricsExpositionFormat in
// internal/server, which run the code instead of reading it.
//
// A rule too small for an analyzer lives in TestTreeIsClean: no file
// uses a sync/atomic function, only the typed atomics, which cannot be
// read plainly and are 8-byte aligned on every target.
//
// The suite is built directly on go/ast and go/types (the repository
// is deliberately dependency-free, so golang.org/x/tools/go/analysis
// is re-modeled here in miniature: see framework.go and loader.go).
// cmd/triadlint is the driver; `triadlint ./...` runs every analyzer
// over the tree, including test files, and exits non-zero on findings.
//
// Adding an analyzer: write a file defining an *Analyzer with a Run
// over a *Pass, append it in Analyzers, add a testdata/src/<name> tree
// with // want annotations, and a <name>_test.go calling runTest.
package lint

// Analyzers returns the full suite in stable order. Both cmd/triadlint
// and the in-repo self-check test run exactly this set.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		TicketLeak,
		MustClose,
	}
}
