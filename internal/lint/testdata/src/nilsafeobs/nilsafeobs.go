// Package nilsafeobs is the caller-side golden target for the
// nilsafeobs analyzer: outside internal/obs, code must go through the
// nil-safe methods — a direct field access is one nil receiver (an
// unsampled trace, a tracer at sample 0, a bare engine's journal) away
// from a nil dereference.
package nilsafeobs

import "obs"

func record(j *obs.Journal) {
	j.Append("flush") // methods keep the nil contract: no finding
}

func peek(j *obs.Journal) int64 {
	return j.Total // want `direct access to obs\.Journal field Total outside internal/obs`
}

func bump(j *obs.Journal) {
	j.Total++ // want `direct access to obs\.Journal field Total outside internal/obs`
}

// A Hist is never nil, so its fields are fair game.
func histCount(h *obs.Hist) int64 {
	return h.Count
}
