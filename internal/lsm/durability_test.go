package lsm

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/manifest"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// syncTracker follows, per file of a MemFS, the bytes written and the
// bytes a sync made durable, so that a power cut can be imaged: every file
// cut back to its synced length.
type syncTracker struct {
	fs *vfs.MemFS

	mu              sync.Mutex
	written, synced map[string]int64
	// renamed is set while the journal's handle, named MANIFEST.new when
	// it was created, writes the file that the roll renamed to MANIFEST.
	renamed bool
}

// trackSyncs replaces fs's hooks with a syncTracker's. onSync, if not nil,
// runs after each successful sync, with the name of the file synced.
func trackSyncs(fs *vfs.MemFS, onSync func(p *syncTracker, name string)) *syncTracker {
	p := &syncTracker{fs: fs, written: map[string]int64{}, synced: map[string]int64{}}
	const journal, rolled = "MANIFEST", "MANIFEST.new"
	fs.SetHooks(vfs.Hooks{After: func(op vfs.Op) {
		p.mu.Lock()
		if op.Kind == vfs.OpCreate && op.Name == rolled {
			p.renamed = false
		}
		name := op.Name
		if name == rolled && p.renamed {
			name = journal
		}
		switch op.Kind {
		case vfs.OpCreate:
			p.written[name], p.synced[name] = 0, 0
		case vfs.OpWrite:
			p.written[name] += int64(op.N)
		case vfs.OpSync:
			p.synced[name] = p.written[name]
		case vfs.OpRemove:
			delete(p.written, name)
			delete(p.synced, name)
		case vfs.OpRename:
			if name != rolled {
				panic("syncTracker: rename of " + name)
			}
			p.renamed = true
			p.written[journal], p.synced[journal] = p.written[name], p.synced[name]
			delete(p.written, name)
			delete(p.synced, name)
		}
		p.mu.Unlock()
		if op.Kind == vfs.OpSync && onSync != nil {
			onSync(p, name)
		}
	}})
	return p
}

// image returns the filesystem a power cut would leave now: a copy of
// every file cut to the bytes synced. Taken outside fs's hooks, it is only
// exact while the store makes no call.
func (p *syncTracker) image() *vfs.MemFS {
	clone := p.fs.Clone()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := vfs.NewMemFS()
	names, _ := clone.List("")
	for _, name := range names {
		in, err := clone.Open(name)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, p.synced[name])
		if n, err := in.ReadAt(buf, 0); err != nil && (err != io.EOF || n != len(buf)) && len(buf) > 0 {
			panic(fmt.Sprintf("%s: read %d of %d synced bytes: %v", name, n, len(buf), err))
		}
		f, err := out.Create(name)
		if err == nil {
			_, err = f.Write(buf)
		}
		if err != nil {
			panic(err)
		}
		f.Close()
	}
	return out
}

// TestFlushJournalsOnlySyncedLogBytes images the store at every MANIFEST
// sync with every file cut to its synced length — a power cut right after
// a manifest edit became durable — and reopens each image: it must be
// consistent and answer every key with one of its written values or
// not-found. Under TRIAD-LOG a flush's edit names the sealed commit log as
// its table's values, so the log must be durable before the edit is.
func TestFlushJournalsOnlySyncedLogBytes(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts func(*vfs.MemFS) Options
	}{{"baseline", smallOptions}, {"triad", triadSmall}} {
		t.Run(mode.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			var images []*vfs.MemFS
			trackSyncs(fs, func(p *syncTracker, name string) {
				if name == "MANIFEST" {
					images = append(images, p.image())
				}
			})
			o := mode.opts(fs)
			db := mustOpen(t, o)
			const keys = 1500
			values := map[string][]string{}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 2*keys; i++ {
				k := fmt.Sprintf("key-%05d", rng.Intn(keys))
				v := fmt.Sprintf("value-%06d-%090d", i, 0)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				values[k] = append(values[k], v)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			fs.SetHooks(vfs.Hooks{})
			bad := 0
			for i, img := range images {
				if err := checkPowerCut(o, img, values); err != nil {
					bad++
					t.Errorf("image %d of %d: %v", i+1, len(images), err)
				}
			}
			t.Logf("%d of %d images bad", bad, len(images))
		})
	}
}

// checkPowerCut reopens img, with auto-compaction off, and checks that it
// is consistent and answers every key of values with one of the values
// written to it, or not-found.
func checkPowerCut(o Options, img *vfs.MemFS, values map[string][]string) error {
	o.FS, o.Events = img, nil
	o.DisableAutoCompaction = true
	db, err := Open(o)
	if err != nil {
		return fmt.Errorf("Open: %w", err)
	}
	defer db.Close()
	if err := db.CheckConsistency(); err != nil {
		return fmt.Errorf("CheckConsistency: %w", err)
	}
	for k, vs := range values {
		v, err := db.Get([]byte(k))
		if err != nil && !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("Get(%s): %w", k, err)
		}
		if err == nil && !slices.Contains(vs, string(v)) {
			return fmt.Errorf("Get(%s) = %.20q..., a value never written to it", k, v)
		}
	}
	return nil
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
			p := trackSyncs(fs, nil)
			o := smallOptions(fs)
			o.TriadMem, o.TriadLog = true, mode.log
			// A quiescent store after Flush, so the image is exact.
			o.DisableAutoCompaction = true
			db := mustOpen(t, o)
			want := map[string]string{}
			put := func(k, v string) {
				if err := db.Put([]byte(k), []byte(v)); err != nil {
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
			ro := o
			ro.FS = p.image()
			img, err := Open(ro)
			if err != nil {
				t.Fatal(err)
			}
			defer img.Close()
			lost := 0
			for k, v := range want {
				got, err := img.Get([]byte(k))
				if err != nil || string(got) != v {
					lost++
					if lost <= 3 {
						t.Errorf("Get(%s) after the power cut = %q, %v; want %q", k, got, err, v)
					}
				}
			}
			if lost > 0 {
				t.Errorf("%d of %d acknowledged keys lost", lost, len(want))
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
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
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
	if _, _, err := w.Append(db.mem.All()[0].Base()); err != nil {
		t.Fatal(err)
	}
	meta := manifest.FileMeta{ID: id + 1, Kind: manifest.KindCLSST, LogID: id, LogBytes: w.Size(),
		Smallest: []byte("k"), Largest: []byte("k"), MaxSeq: db.LastSeq()}
	journal, _ := fs.Open("MANIFEST")
	before, _ := journal.Size()
	err = db.install(manifest.Edit{Added: []manifest.FileMeta{meta}}, nil, &immutable{log: w})
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
					if err := db.Put([]byte(k), []byte(fmt.Sprintf("%d-%d-%080d", round, i, i))); err != nil {
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
