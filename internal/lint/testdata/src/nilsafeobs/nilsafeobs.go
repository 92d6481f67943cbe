// Package nilsafeobs is the caller-side golden target for the
// nilsafeobs analyzer: outside internal/obs, code must go through the
// nil-safe methods — a direct field access is one nil receiver (an
// unsampled trace, a tracer at sample 0, a bare engine's journal) away
// from a nil dereference.
package nilsafeobs

import "obs"

func record(h *obs.Hist) {
	h.Observe(7) // methods keep the nil contract: no finding
}

func peek(h *obs.Hist) int64 {
	return h.Count // want `direct access to obs\.Hist field Count outside internal/obs`
}

func bump(h *obs.Hist) {
	h.Count++ // want `direct access to obs\.Hist field Count outside internal/obs`
}
