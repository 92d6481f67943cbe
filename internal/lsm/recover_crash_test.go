package lsm

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// TestRecoverCrashPoints crashes recovery itself. It samples, with a fixed
// seed, the crash images of TestLogRetirementCrashPoints' TRIAD-LOG run:
// images with unflushed logs, with a journaled log number, and with a table
// that a flush or a fold wrote but never listed. It reopens each sample and
// images every change recovery and the reopened store's first Flush make —
// removing the unlisted tables, rewriting the manifest journal, creating
// the fresh log, retiring the replayed logs nothing points into, then
// flushing the memtable that points into the rest — and every one of those
// nested images must recover what the sample had to. Recovery appends to no
// log: it leaves unpinned the fresh log and exactly the replayed logs the
// memtable points into, and after the Flush the live log alone.
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
	var removedTables, rolledJournals, kept, retired, logNumbers, nested int
	for _, s := range samples {
		ro := s.o
		ro.FS, ro.Events, ro.Scheduler = s.fs, nil, testPool(t)
		ro.DisableAutoCompaction = true // the changes imaged are recovery's and the Flush's alone
		opened, failed := false, false
		imageChanges(s.fs, func(what string, image *vfs.MemFS) {
			nested++
			switch op, name, _ := strings.Cut(what, " "); {
			case opened:
			case op == "write" && strings.HasSuffix(name, ".log"):
				t.Errorf("image %d (after %q): recovery appended to %s", s.n, s.what, name)
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
				t.Errorf("image %d (after %q), reopened store crashed after %q: %v", s.n, s.what, what, err)
			}
		})
		db, err := Open(ro)
		if err != nil {
			t.Fatalf("image %d (after %q): Open: %v", s.n, s.what, err)
		}
		opened = true
		if db.logNumber > 0 {
			logNumbers++
		}
		if len(liveRecord(db).prev) > 0 {
			kept++
		}
		if logs, want := unpinnedLogs(t, db, s.fs), recoveredLogs(db); !slices.Equal(logs, want) {
			t.Errorf("image %d (after %q): unpinned logs after recovery %v, want %v", s.n, s.what, logs, want)
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("image %d (after %q): Flush: %v", s.n, s.what, err)
		}
		s.fs.SetHooks(vfs.Hooks{})
		if logs, id := unpinnedLogs(t, db, s.fs), liveRecord(db).log.ID(); len(logs) != 1 || logs[0] != wal.FileName(id) {
			t.Errorf("image %d (after %q): unpinned logs after the first Flush %v, want only the live log %d", s.n, s.what, logs, id)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// Recovery completed: what it left must recover too.
		if err := s.check(t); err != nil {
			t.Errorf("image %d (after %q), recovered once: %v", s.n, s.what, err)
		}
	}
	t.Logf("%d samples, %d nested images: recovery removed %d unlisted tables, rolled %d journals, kept replayed logs in %d samples, retired %d logs; %d samples had a log number",
		len(samples), nested, removedTables, rolledJournals, kept, retired, logNumbers)
	if removedTables == 0 || rolledJournals == 0 || kept == 0 || retired == 0 || logNumbers == 0 {
		t.Fatal("the samples do not exercise every change recovery makes")
	}
}

// recoveredLogs lists the logs a store that has just been opened should
// leave unpinned: its fresh log and the replayed logs its memtable points
// into.
func recoveredLogs(db *DB) []string {
	l := liveRecord(db)
	ids := map[uint64]bool{l.log.ID(): true}
	for _, e := range l.mem.All() {
		ids[e.LogID] = true
	}
	var names []string
	for id := range ids {
		names = append(names, wal.FileName(id))
	}
	slices.Sort(names)
	return names
}
