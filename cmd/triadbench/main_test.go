package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// listedExperiments returns the names the usage text lists under
// "Experiments:".
func listedExperiments(usage string) []string {
	_, list, ok := strings.Cut(usage, "Experiments:\n")
	if !ok {
		return nil
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	return names
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name             string
		args             []string
		code             int
		wantOut, wantErr []string
		// listed, when set, is exactly what the usage text must list
		// under "Experiments:", in order.
		listed []string
	}{
		{name: "help", args: []string{"-h"}, code: 0, wantErr: []string{"-experiment"},
			listed: strings.Split(experimentNames(" "), " ")},
		{name: "unknown experiment", args: []string{"-experiment", "shardscale"}, code: 2,
			wantErr: []string{`unknown experiment "shardscale"`, experimentNames(", ")}},
		{name: "unknown scale", args: []string{"-experiment", "fig7", "-scale", "huge"}, code: 2,
			wantErr: []string{`unknown scale "huge"`, "quick, full"}},
		{name: "removed flag", args: []string{"-shards", "4"}, code: 2, wantErr: []string{"-shards"}},
		{name: "fig7", args: []string{"-experiment", "fig7"}, code: 0,
			wantOut: []string{"=== fig7 ===", "Figure 7: production workload key access probabilities", "(fig7 in "}},
		{name: "fig8", args: []string{"-experiment", "FIG8"}, code: 0,
			wantOut: []string{"=== fig8 ===", "Figure 8: production workloads (scaled 1/1000)", "(fig8 in "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, &stdout)
				}
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, &stderr)
				}
			}
			if got := listedExperiments(stderr.String()); tc.listed != nil && !slices.Equal(got, tc.listed) {
				t.Errorf("usage lists %v, want %v", got, tc.listed)
			}
		})
	}
}

// TestSelected resolves -experiment names without running anything.
func TestSelected(t *testing.T) {
	names := func(es []experiment) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.name)
		}
		return out
	}
	for arg, want := range map[string][]string{
		"fig9c":      {"fig9b"}, // one run prints 9B and 9C
		"fig9b":      {"fig9b"},
		"Fig10Dev":   {"fig10dev"},
		"sizetiered": nil,
		"conflict":   nil,
		"":           nil,
	} {
		if got := names(selected(arg)); !slices.Equal(got, want) {
			t.Errorf("selected(%q) = %v, want %v", arg, got, want)
		}
	}
	if got := names(selected("all")); !slices.Equal(got, names(experiments)) {
		t.Errorf("selected(all) = %v, want the whole table", got)
	}
}
