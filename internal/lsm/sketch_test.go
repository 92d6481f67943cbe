package lsm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hll"
	"repro/internal/manifest"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// l0Sketches reports, holding the compaction slot so that no fold or merge
// takes an L0 table away meanwhile, how many L0 tables db has and how many
// of them are folds of folds, after checking that each one's sketch is the
// sketch of the keys its table holds, which the check walks itself, and
// that the union of the sketches is that of the union of the keys.
func l0Sketches(t *testing.T, db *DB) (tables, foldsOfFolds int) {
	t.Helper()
	err := db.inCompactSlot(func() error {
		db.versionMu.RLock()
		l0 := slices.Clone(db.version.Levels[0])
		tabs := make([]sstable.Table, len(l0))
		for i, f := range l0 {
			tabs[i] = db.tables[f.ID]
		}
		db.versionMu.RUnlock()
		got, want := hll.MustNew(hll.DefaultPrecision), hll.MustNew(hll.DefaultPrecision)
		for i, f := range l0 {
			if f.Sketch == nil {
				return fmt.Errorf("L0 table %d has no sketch", f.ID)
			}
			keys := hll.MustNew(hll.DefaultPrecision)
			it, err := tabs[i].NewIterator()
			if err != nil {
				return err
			}
			for it.Next() {
				keys.Add(it.Entry().Key)
			}
			if err := it.Err(); err != nil {
				return err
			}
			it.Close()
			if f.Sketch.Count() != keys.Count() || f.Sketch.Estimate() != keys.Estimate() {
				return fmt.Errorf("L0 table %d (kind %d): its sketch counts %d and estimates %d; its keys, %d and %d",
					f.ID, f.Kind, f.Sketch.Count(), f.Sketch.Estimate(), keys.Count(), keys.Estimate())
			}
			if err := got.Merge(f.Sketch); err != nil {
				return err
			}
			if err := want.Merge(keys); err != nil {
				return err
			}
			if f.Kind == manifest.KindCLFold && f.FoldBytes > f.Size {
				foldsOfFolds++ // an input was a fold
			}
		}
		if got.Estimate() != want.Estimate() {
			return fmt.Errorf("the union of L0's %d sketches estimates %d; of their keys, %d", len(l0), got.Estimate(), want.Estimate())
		}
		tables = len(l0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tables, foldsOfFolds
}

// TestL0SketchesAreTheirKeys: under TRIAD-DISK, with TRIAD-LOG (whose L0
// folds, folds of folds included) and without, every L0 table's sketch —
// made as its flush or fold wrote it, or remade at recovery — is the
// sketch of the keys the table holds, with compactions running in the
// background and after a reopen.
func TestL0SketchesAreTheirKeys(t *testing.T) {
	for _, withLog := range []bool{false, true} {
		t.Run(fmt.Sprintf("TRIAD-LOG %v", withLog), func(t *testing.T) {
			o := triadSmall(vfs.NewMemFS())
			o.TriadLog = withLog
			db := mustOpen(t, o)
			rng := rand.New(rand.NewSource(11))
			i := 0
			// load writes n random puts and deletes and flushes them.
			load := func(n int) {
				t.Helper()
				for end := i + n; i < end; i++ {
					k := fmt.Sprintf("k%05d", rng.Intn(3000))
					var err error
					if rng.Intn(10) == 0 {
						err = clocked(db).Delete([]byte(k))
					} else {
						err = clocked(db).Put([]byte(k), []byte(fmt.Sprintf("%s@%d-%s", k, i, strings.Repeat("v", rng.Intn(60)))))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			var checked, foldsOfFolds int
			for round := 0; round < 20; round++ {
				load(600)
				n, ff := l0Sketches(t, db)
				checked += n
				foldsOfFolds += ff
			}
			m := db.Metrics()
			t.Logf("%d L0 tables checked over %d flushes, %d folds, %d merges; %d checks of a fold of folds", checked, m.Flushes, m.Folds, m.Compactions, foldsOfFolds)
			if checked == 0 || m.Flushes < 10 || withLog && (m.Folds < 2 || foldsOfFolds == 0) {
				t.Fatalf("%d L0 tables checked over %d flushes, %d folds, %d checks of a fold of folds: the test is vacuous", checked, m.Flushes, m.Folds, foldsOfFolds)
			}
			// Reopen with compactions off, so that L0 stays as recovery
			// left it until it is checked, and again after one more
			// flush, so that a merge that emptied L0 before the first
			// Close does not leave recovery nothing to sketch.
			o.DisableAutoCompaction = true
			recovered := 0
			for reopen := 0; reopen < 2; reopen++ {
				if reopen > 0 {
					load(600)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db = mustOpen(t, o)
				n, _ := l0Sketches(t, db)
				recovered += n
			}
			if recovered == 0 {
				t.Fatal("no L0 table to check after a reopen")
			}
		})
	}
}

// TestNewTablesAreNotReadBack: a flush and a fold read the table they
// write only as its open does — the footer, index, Bloom filter and
// properties blocks — and none of its data blocks: the table's writer
// made its key sketch.
func TestNewTablesAreNotReadBack(t *testing.T) {
	for _, withLog := range []bool{false, true} {
		fs := vfs.NewMemFS()
		o := triadSmall(fs)
		o.TriadLog = withLog
		o.TriadMem = false
		o.DisableAutoCompaction = true
		db := mustOpen(t, o)
		var mu sync.Mutex
		created := map[string]bool{}
		reads := map[string]int{}
		fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
			if !strings.HasSuffix(op.Name, ".sst") && !strings.HasSuffix(op.Name, ".clidx") {
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			switch op.Kind {
			case vfs.OpCreate:
				created[op.Name] = true
			case vfs.OpReadAt:
				if created[op.Name] {
					reads[op.Name]++
				}
			}
			return nil
		}})
		// check fails unless every table made since its last call was
		// read four times.
		check := func(what string) {
			t.Helper()
			mu.Lock()
			defer mu.Unlock()
			if len(created) == 0 {
				t.Fatalf("TRIAD-LOG %v: %s wrote no table", withLog, what)
			}
			for name := range created {
				if reads[name] != 4 {
					t.Errorf("TRIAD-LOG %v: %s read its table %s %d times, want 4 (footer, index, filter, properties)", withLog, what, name, reads[name])
				}
			}
			clear(created)
			clear(reads)
		}
		for f := 0; f < 3; f++ {
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%03d-%05d", i, f)
				if err := clocked(db).Put([]byte(k), []byte(strings.Repeat("v", 40))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			check("a flush")
		}
		if withLog {
			foldL0(t, db, fs)
			check("a fold")
		}
		fs.SetHooks(vfs.Hooks{})
	}
}
