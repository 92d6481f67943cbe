package lsm

import (
	"maps"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// TestRecoverCrashPoints crashes recovery itself. It samples, with a fixed
// seed, the crash images of TestLogRetirementCrashPoints' TRIAD-LOG run:
// images with unflushed logs, with a journaled log number, and with a table
// that a flush or a fold wrote but never listed. It reopens each sample and
// images every change recovery makes — removing the unlisted tables,
// rewriting the manifest journal, creating the fresh log and carrying the
// replayed records into it, retiring the replayed logs — and every one of
// those nested images must recover what the sample had to, with no
// unlisted table and no unpinned log but the fresh one.
func TestRecoverCrashPoints(t *testing.T) {
	const seed = 29
	rng := rand.New(rand.NewSource(seed))
	var samples []crashImage
	retireRun(t, true, 1, func(img crashImage) {
		// Images between a table's creation and the edit that lists it are
		// few; take more of them.
		p := 0.05
		if strings.HasSuffix(img.what, ".sst") || strings.HasSuffix(img.what, ".clidx") {
			p = 0.5
		}
		if rng.Float64() < p {
			img.acked = maps.Clone(img.acked)
			samples = append(samples, img)
		}
	})

	// What recovery did, over all samples.
	var removedTables, rolledJournals, carried, retired, logNumbers, nested int
	for _, s := range samples {
		ro := s.o
		ro.FS, ro.Events = s.fs, nil
		ro.DisableAutoCompaction = true // the changes imaged are recovery's alone
		fresh := ""
		failed := false
		imageChanges(s.fs, func(what string, image *vfs.MemFS) {
			nested++
			switch op, name, _ := strings.Cut(what, " "); {
			case op == "create" && strings.HasSuffix(name, ".log"):
				fresh = name
			case op == "write" && name == fresh:
				carried++
			case op == "rename":
				rolledJournals++
			case op == "remove" && strings.HasSuffix(name, ".log"):
				retired++
			case op == "remove" && (strings.HasSuffix(name, ".sst") || strings.HasSuffix(name, ".clidx")):
				removedTables++
			}
			if failed {
				return
			}
			in := s
			in.fs = image
			if err := in.check(t); err != nil {
				failed = true
				t.Errorf("image %d (after %q), recovery crashed after %q: %v", s.n, s.what, what, err)
			}
		})
		db, err := Open(ro)
		s.fs.SetHooks(vfs.Hooks{})
		if err != nil {
			t.Fatalf("image %d (after %q): Open: %v", s.n, s.what, err)
		}
		if db.logNumber > 0 {
			logNumbers++
		}
		if logs := unpinnedLogs(t, db, s.fs); len(logs) != 1 || logs[0] != wal.FileName(db.log.ID()) {
			t.Errorf("image %d (after %q): unpinned logs after recovery %v, want only the fresh log %d", s.n, s.what, logs, db.log.ID())
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// Recovery completed: what it left must recover too.
		if err := s.check(t); err != nil {
			t.Errorf("image %d (after %q), recovered once: %v", s.n, s.what, err)
		}
	}
	t.Logf("%d samples, %d nested images: recovery removed %d unlisted tables, rolled %d journals, carried records into %d fresh logs, retired %d logs; %d samples had a log number",
		len(samples), nested, removedTables, rolledJournals, carried, retired, logNumbers)
	if removedTables == 0 || rolledJournals == 0 || carried == 0 || retired == 0 || logNumbers == 0 {
		t.Fatal("the samples do not exercise every change recovery makes")
	}
}
