package lsm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// unlistedTables lists the table files in fs that no level of db's version
// lists.
func unlistedTables(t *testing.T, db *DB, fs vfs.FS) []string {
	t.Helper()
	listed := map[string]bool{}
	db.versionMu.RLock()
	for _, files := range db.version.Levels {
		for _, f := range files {
			listed[tableFileName(f)] = true
		}
	}
	db.versionMu.RUnlock()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(name, "%d.", &id); err != nil {
			continue
		}
		if (name == sstable.FileName(id) || name == sstable.CLIndexFileName(id)) && !listed[name] {
			out = append(out, name)
		}
	}
	return out
}

// compactAllCrashPoints opens a store with options, fills it with load,
// then runs one CompactAll and crashes it after every change it makes to
// the filesystem. Each image must pass crashImage.check with the oracle
// load returns acknowledged and nothing in flight: it reopens consistent,
// scanning equal to the oracle. It returns the journal entries of the
// CompactAll, oldest first, and how many images it checked.
func compactAllCrashPoints(t *testing.T, options func(*vfs.MemFS) Options, load func(db *DB) map[string]string) ([]obs.Event, int) {
	t.Helper()
	fs := vfs.NewMemFS()
	o := options(fs)
	o.DisableAutoCompaction = true // the one CompactAll is all the compaction there is
	o.Events = obs.NewJournal(4096)
	db := mustOpen(t, o)
	defer db.Close()
	acked := load(db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	images := 0
	failed := false
	imageChanges(fs, func(what string, image *vfs.MemFS) {
		if failed {
			return
		}
		images++
		if err := (crashImage{n: images, what: what, fs: image, o: o, acked: acked}).check(t); err != nil {
			failed = true
			t.Errorf("crash after %q, image %d: %v", what, images, err)
		}
	})
	before := o.Events.Total()
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	fs.SetHooks(vfs.Hooks{})
	events := o.Events.Events(int(o.Events.Total() - before))
	for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
		events[i], events[j] = events[j], events[i]
	}
	return events, images
}

// TestCompactionCrashPoints crashes one CompactAll after every change it
// makes to the filesystem and reopens each image (compactAllCrashPoints).
// A crash between a merge's output writes and its manifest edit leaves
// those outputs behind, and one between the edit and the removal of its
// inputs leaves the inputs: recovery must delete both, or they leak for
// the life of the store. The first run merges a TRIAD tree's L0; the
// second drains a leveled tree through every kind of install below L0 —
// an L0 merge that spills into L2 (two levels in one edit), a min-overlap
// push that merges, and a trivial move — and the journal must show each.
func TestCompactionCrashPoints(t *testing.T) {
	t.Run("triad", func(t *testing.T) {
		events, images := compactAllCrashPoints(t, triadSmall, func(db *DB) map[string]string {
			oracle := map[string]string{}
			rng := rand.New(rand.NewSource(27))
			for i := 0; i < 6000; i++ {
				k, v := fmt.Sprintf("k%05d", rng.Intn(3000)), fmt.Sprintf("v%06d", i)
				oracle[k] = v
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				if i%500 == 499 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			return oracle
		})
		merges := 0
		for _, e := range events {
			if e.Kind == obs.EventCompaction && strings.HasPrefix(e.Detail, "L0->L1") {
				merges++
			}
		}
		t.Logf("%d images, %d compaction events", images, len(events))
		if merges == 0 {
			t.Fatalf("CompactAll merged no L0: %v", events)
		}
	})
	t.Run("spill-merge-move", func(t *testing.T) {
		options := func(fs *vfs.MemFS) Options {
			o := ladderOptions(fs)
			o.BlockBytes = 4 << 10     // fewer writes per table, fewer images
			o.BaseLevelBytes = 8 << 10 // L3 opens within ten drains
			return o
		}
		events, images := compactAllCrashPoints(t, options, func(db *DB) map[string]string {
			oracle := map[string]string{}
			rng := rand.New(rand.NewSource(14))
			val := make([]byte, 60)
			put := func(k string) {
				for j := range val {
					val[j] = 'a' + byte(rng.Intn(26))
				}
				oracle[k] = string(val)
				if err := db.Put([]byte(k), val); err != nil {
					t.Fatal(err)
				}
			}
			// Random overwrites of 3000 keys, compacted after every flush,
			// build a tree down to L3 with L2 intermediate.
			fresh := 0
			for step := 0; step < 12; step++ {
				if step >= 10 {
					// Left for the imaged CompactAll: more overwrites, which
					// overfill L1 (a spill) and push files that overlap L2
					// (merges), and fresh keys above all the others, which
					// reach levels with nothing under them (moves).
					for i := 0; i < 200; i++ {
						put(fmt.Sprintf("k%05d", 10000+fresh))
						fresh++
					}
				}
				for i := 0; i < 300; i++ {
					k := fmt.Sprintf("k%05d", rng.Intn(3000))
					if rng.Intn(5) == 0 {
						delete(oracle, k)
						if err := db.Delete([]byte(k)); err != nil {
							t.Fatal(err)
						}
						continue
					}
					put(k)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if step < 10 {
					if err := db.CompactAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if files := db.NumLevelFiles(); files[3] == 0 {
				t.Fatalf("no L3 before the imaged CompactAll: %v", files)
			}
			return oracle
		})
		seen := map[string]bool{}
		for _, e := range events {
			switch {
			case e.Kind != obs.EventCompaction:
			case strings.Contains(e.Detail, " ranges spilled to "):
				seen["spill"] = true
			case strings.Contains(e.Detail, "trivial move"):
				seen["move"] = true
			case strings.Contains(e.Detail, "min-overlap ratio"):
				seen["merge"] = true
			}
		}
		t.Logf("%d images, %d compaction events", images, len(events))
		if len(seen) != 3 {
			for _, e := range events {
				t.Log(e.Detail)
			}
			t.Fatalf("the imaged CompactAll ran %v; it must spill, merge by min-overlap and move", seen)
		}
	})
}
