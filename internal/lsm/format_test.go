package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hll"
	"repro/internal/vfs"
)

// The footer magics of the sstable formats: tables written before keys
// shared their block's prefixes, and tables written since.
const (
	magicWholeKeys  = 0x7472696164317632 // "triad1v2"
	magicSharedKeys = 0x7472696164317633 // "triad1v3"
)

// tableMagics counts db's live tables by the magic their files end in.
func tableMagics(t *testing.T, db *DB, fs vfs.FS) map[uint64]int {
	t.Helper()
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	magics := map[uint64]int{}
	for _, files := range db.version.Levels {
		for _, f := range files {
			file, err := fs.Open(tableFileName(f))
			if err != nil {
				t.Fatal(err)
			}
			size, _ := file.Size()
			var m [8]byte
			_, err = file.ReadAt(m[:], size-8)
			file.Close()
			if err != nil {
				t.Fatal(err)
			}
			magics[binary.LittleEndian.Uint64(m[:])]++
		}
	}
	return magics
}

// TestMixedFormatStore: testdata/prefold's tables were all written before
// prefix elision. Opened and written on, the store holds tables of both
// formats side by side, reads and scrubs clean with every L0 table's
// sketch built at open, merges them all into the current format and
// reopens clean.
func TestMixedFormatStore(t *testing.T) {
	fs := vfs.NewMemFS()
	names, err := filepath.Glob(filepath.Join("testdata", "prefold", "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture: %v, %v", names, err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create(filepath.Base(name))
		f.Write(b)
		f.Close()
	}
	o := triadSmall(fs)
	o.MemtableBytes, o.CommitLogBytes, o.FlushThresholdBytes = 8<<10, 32<<10, 4<<10
	o.BaseLevelBytes, o.TargetFileBytes = 32<<10, 8<<10
	o.DisableAutoCompaction = true
	oracle := map[string]string{}
	apply := func(i int) (string, string, bool) {
		k, v, del := prefoldOp(i)
		if del {
			delete(oracle, k)
		} else {
			oracle[k] = v
		}
		return k, v, del
	}
	for i := 0; i < 2400; i++ {
		apply(i)
	}
	check := func(what string, db *DB) {
		t.Helper()
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("k%04d", i)
			v, err := db.Get([]byte(k))
			if w, ok := oracle[k]; !ok && !errors.Is(err, ErrNotFound) || ok && (err != nil || string(v) != w) {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q (present %v)", what, k, v, err, w, ok)
			}
		}
		if err := db.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	db := mustOpen(t, o)
	if m := tableMagics(t, db, fs); m[magicWholeKeys] == 0 || m[magicSharedKeys] != 0 {
		t.Fatalf("the fixture's tables by magic: %x", m)
	}
	for i := 2400; i < 3200; i++ {
		k, v, del := apply(i)
		if del {
			err = clocked(db).Delete([]byte(k))
		} else {
			err = clocked(db).Put([]byte(k), []byte(v))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := tableMagics(t, db, fs)
	if m[magicWholeKeys] == 0 || m[magicSharedKeys] == 0 || len(m) != 2 {
		t.Fatalf("tables by magic: %x; want both formats", m)
	}
	db.versionMu.RLock()
	for _, f := range db.version.Levels[0] {
		if f.Sketch == nil {
			t.Errorf("L0 table %d opened without its sketch", f.ID)
		}
	}
	db.versionMu.RUnlock()
	check("mixed", db)

	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if m := tableMagics(t, db, fs); m[magicSharedKeys] == 0 || len(m) != 1 {
		t.Fatalf("tables by magic after the drain: %x; want the current format only", m)
	}
	check("drained", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, o)
	check("reopened", db)
}

// TestL0SketchesSurviveReopen: no table stores its sketch; an L0 table's
// writer makes it, and recovery remakes it from the table's keys, to the
// same registers, so TRIAD-DISK's overlap ratio over L0,
// and the deferral it decides, read the same before a Close and after the
// reopen: for L0 tables (TRIAD-DISK alone, whose L0 defers) and for
// CL-SSTables (TRIAD-DISK with TRIAD-LOG, which folds where it would
// defer).
func TestL0SketchesSurviveReopen(t *testing.T) {
	for _, withLog := range []bool{false, true} {
		fs := vfs.NewMemFS()
		o := triadSmall(fs)
		o.TriadLog = withLog
		o.DisableAutoCompaction = true
		db := mustOpen(t, o)
		for i := 0; i < 650; i++ {
			// One key in four recurs in every flush, the rest are fresh:
			// L0 overlaps, but too little to merge below MaxFilesL0.
			k := fmt.Sprintf("k%05d", i)
			if i%4 == 0 {
				k = fmt.Sprintf("hot%03d", i%40)
			}
			if err := clocked(db).Put([]byte(k), []byte(fmt.Sprintf("%080d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		type l0 struct {
			ratio    float64
			counts   []uint64
			deferred bool
		}
		read := func() l0 {
			db.versionMu.RLock()
			defer db.versionMu.RUnlock()
			var r l0
			var sketches []*hll.Sketch
			for _, f := range db.version.Levels[0] {
				s := f.Sketch
				if s == nil {
					t.Fatalf("L0 table %d has no sketch", f.ID)
				}
				sketches = append(sketches, s)
				r.counts = append(r.counts, s.Count(), s.Estimate())
			}
			r.ratio = hll.OverlapRatio(sketches)
			job := db.picker.Pick(db.version, false)
			r.deferred = job != nil && job.Deferred
			return r
		}
		before := read()
		if before.ratio == 0 || before.deferred == withLog {
			t.Fatalf("TRIAD-LOG %v: L0 of %d tables, overlap ratio %.3f, deferred %v; the check is vacuous", withLog, len(before.counts)/2, before.ratio, before.deferred)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = mustOpen(t, o)
		after := read()
		if after.ratio != before.ratio || fmt.Sprint(after.counts) != fmt.Sprint(before.counts) || after.deferred != before.deferred {
			t.Fatalf("TRIAD-LOG %v: L0 sketches before Close: %+v, after the reopen: %+v", withLog, before, after)
		}
	}
}
