package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/manifest"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// TestFlushJournalsOnlySyncedLogBytes images the store at every sync of a
// MANIFEST* file as a power cut leaves it — right after a manifest edit,
// or a roll's fresh journal before its rename, became durable — and
// reopens each image: it must pass crashImage.check with every key read as
// one of its written values or not-found. Under TRIAD-LOG a flush's edit
// names the sealed commit log as its table's values, so the log must be
// durable before the edit is.
func TestFlushJournalsOnlySyncedLogBytes(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts func(*vfs.MemFS) Options
	}{{"baseline", smallOptions}, {"triad", triadSmall}} {
		t.Run(mode.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			var images []*vfs.MemFS
			rolls := 0
			fs.SetHooks(vfs.Hooks{After: func(op vfs.Op) {
				if op.Kind == vfs.OpSync && strings.HasPrefix(op.Name, "MANIFEST") {
					images = append(images, fs.Crash())
					if fs.Exists("MANIFEST.new") {
						rolls++
					}
				}
			}})
			o := mode.opts(fs)
			db := mustOpen(t, o)
			const keys = 1500
			values := map[string][]string{}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 2*keys; i++ {
				k := fmt.Sprintf("key-%05d", rng.Intn(keys))
				v := fmt.Sprintf("value-%06d-%090d", i, 0)
				if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				values[k] = append(values[k], v)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			fs.SetHooks(vfs.Hooks{})
			if rolls == 0 {
				t.Fatal("no image of a MANIFEST roll before its rename")
			}
			bad := 0
			for i, cut := range images {
				img := crashImage{n: i + 1, what: "a MANIFEST sync", fs: cut, o: o, maybe: values}
				if err := img.check(t); err != nil {
					bad++
					t.Errorf("image %d of %d: %v", i+1, len(images), err)
				}
			}
			t.Logf("%d of %d images bad, %d of a roll", bad, len(images), rolls)
		})
	}
}

// TestFlushMakesHotKeysDurable: with SyncWAL off, a write acknowledged
// before Flush returns survives a power cut. TRIAD-MEM keeps a flush's hot
// keys in memory and writes them back to the live commit log, and the
// flush's edit then leaves their older logs behind, so the write-back must
// be durable by the time the edit is.
func TestFlushMakesHotKeysDurable(t *testing.T) {
	for _, mode := range []struct {
		name string
		log  bool
	}{{"mem", false}, {"mem+log", true}} {
		t.Run(mode.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			o := smallOptions(fs)
			o.TriadMem, o.TriadLog = true, mode.log
			// A quiescent store after Flush, so the image is exact.
			o.DisableAutoCompaction = true
			db := mustOpen(t, o)
			want := map[string]string{}
			put := func(k, v string) {
				if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			// Each round updates the hot keys three times and the cold ones
			// once, and fits in one memtable, so each Flush keeps the hot
			// keys in memory.
			for round := 0; round < 40; round++ {
				for i := 0; i < 60; i++ {
					put(fmt.Sprintf("hot-%02d", i%20), fmt.Sprintf("round %02d pass %d %090d", round, i/20, 0))
				}
				for c := 0; c < 50; c++ {
					put(fmt.Sprintf("cold-%02d-%02d", round, c), fmt.Sprintf("%0100d", c))
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if n := db.met.HotKeysKeptInMem.Load(); n < 20*39 {
				t.Fatalf("flushes kept %d hot keys in memory, want at least %d", n, 20*39)
			}
			img := crashImage{n: 1, what: "the last Flush", fs: fs.Crash(), o: o, acked: want}
			if err := img.check(t); err != nil {
				t.Errorf("power cut after %s: %v", img.what, err)
			}
		})
	}
}

// TestInstallRefusesUnsyncedLog: install journals no flush edit that names
// a byte of the flushing commit log the log has not synced, and says so
// with an invariant error; once the log syncs, a flush goes through.
func TestInstallRefusesUnsyncedLog(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	if err := clocked(db).Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	id := db.allocFileID()
	db.mu.Unlock()
	w, err := wal.NewWriter(fs, id, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := w.Append(liveRecord(db).mem.All()[0].Base()); err != nil {
		t.Fatal(err)
	}
	meta := manifest.FileMeta{ID: id + 1, Kind: manifest.KindCLSST, LogID: id, LogBytes: w.Size(),
		Smallest: []byte("k"), Largest: []byte("k"), MaxSeq: db.LastSeq()}
	journal, _ := fs.Open("MANIFEST")
	before, _ := journal.Size()
	err = db.install(manifest.Edit{Added: []manifest.FileMeta{meta}}, nil, &memRecord{log: w})
	if !errors.Is(err, errInvariant) {
		t.Fatalf("install of a table over %d unsynced log bytes = %v, want an invariant error", w.Size(), err)
	}
	after, _ := journal.Size()
	journal.Close()
	if after != before || len(db.version.Levels[0]) != 0 {
		t.Fatalf("refused edit reached the tree: MANIFEST %d -> %d bytes, %d L0 tables", before, after, len(db.version.Levels[0]))
	}

	// The flush path syncs before it installs.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(db.version.Levels[0]); n != 1 {
		t.Fatalf("%d L0 tables after Flush, want 1", n)
	}
}

// TestUnsyncedLogBytes: the commit-log bytes a power cut could take are
// more than 0 after puts with SyncWAL off and 0 once Flush returns; under
// SyncWAL they are 0 after every put, while flushes, flush skips and hot
// write-backs run underneath.
func TestUnsyncedLogBytes(t *testing.T) {
	for _, triad := range []bool{false, true} {
		for _, syncWAL := range []bool{false, true} {
			fs := vfs.NewMemFS()
			o := smallOptions(fs)
			if triad {
				o = triadSmall(fs)
			}
			o.SyncWAL = syncWAL
			db := mustOpen(t, o)
			for round := 0; round < 3; round++ {
				for i := 0; i < 1500; i++ {
					k := fmt.Sprintf("key-%04d", i%400)
					if i%3 == 0 {
						k = fmt.Sprintf("key-%04d", i%20) // hot
					}
					if err := clocked(db).Put([]byte(k), []byte(fmt.Sprintf("%d-%d-%080d", round, i, i))); err != nil {
						t.Fatal(err)
					}
					if n := db.UnsyncedLogBytes(); syncWAL && n != 0 {
						t.Fatalf("triad=%v SyncWAL: %d log bytes unsynced after put %d", triad, n, i)
					}
				}
				if n := db.UnsyncedLogBytes(); !syncWAL && n == 0 {
					t.Fatalf("triad=%v: no log bytes unsynced after puts with SyncWAL off", triad)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := db.UnsyncedLogBytes(); n != 0 {
					t.Fatalf("triad=%v SyncWAL=%v: %d log bytes unsynced once Flush returned", triad, syncWAL, n)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
