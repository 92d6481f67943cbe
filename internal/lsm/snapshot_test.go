package lsm

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// TestSnapshotFrozenView: a snapshot's Get and iterator ignore every
// write that lands after the pin — including in-place overwrites of
// live-memtable entries (the versions kept behind them), new keys, and
// deletes.
func TestSnapshotFrozenView(t *testing.T) {
	for _, mode := range []string{"baseline", "triad"} {
		t.Run(mode, func(t *testing.T) {
			fs := vfs.NewMemFS()
			mk := smallOptions
			if mode == "triad" {
				mk = triadSmall
			}
			db := mustOpen(t, mk(fs))
			for i := 0; i < 500; i++ {
				if err := clocked(db).Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v1-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			s, err := clocked(db).NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// Overwrite everything, delete some, add new keys.
			for i := 0; i < 500; i++ {
				if err := clocked(db).Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v2")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				if err := clocked(db).Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 500; i < 600; i++ {
				if err := clocked(db).Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("new")); err != nil {
					t.Fatal(err)
				}
			}

			// Point reads: the snapshot sees v1 everywhere, including the
			// deleted range, and none of the new keys.
			for _, i := range []int{0, 50, 123, 499} {
				k := fmt.Sprintf("key-%04d", i)
				v, err := s.Get([]byte(k))
				if err != nil || string(v) != fmt.Sprintf("v1-%d", i) {
					t.Fatalf("snapshot Get(%s) = %q, %v; want v1-%d", k, v, err, i)
				}
			}
			if _, err := s.Get([]byte("key-0550")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("snapshot sees post-pin key: %v", err)
			}
			// Live reads have moved on.
			if v, err := db.Get([]byte("key-0200")); err != nil || string(v) != "v2" {
				t.Fatalf("live Get = %q, %v; want v2", v, err)
			}
			if _, err := db.Get([]byte("key-0000")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("live Get of deleted key = %v", err)
			}

			// The snapshot scan equals the pinned state exactly.
			it, err := s.NewIterator(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for it.Next() {
				want := fmt.Sprintf("v1-%d", n)
				if string(it.Key()) != fmt.Sprintf("key-%04d", n) || string(it.Value()) != want {
					t.Fatalf("entry %d = (%q, %q), want (key-%04d, %s)", n, it.Key(), it.Value(), n, want)
				}
				n++
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n != 500 {
				t.Fatalf("snapshot scan saw %d entries, want 500", n)
			}
		})
	}
}

// TestSnapshotSurvivesFlushAndCompaction: files a snapshot pins outlive
// the compactions that consume them (zombies), and are deleted when the
// snapshot closes.
func TestSnapshotSurvivesFlushAndCompaction(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	for i := 0; i < 2000; i++ {
		if err := clocked(db).Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v1-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := clocked(db).NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite everything and force the tree through flushes and full
	// compactions: every file the snapshot pinned is consumed.
	for i := 0; i < 2000; i++ {
		if err := clocked(db).Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}

	beforeClose, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}

	// The snapshot still reads the pre-compaction state from the pinned
	// (now-zombie) files.
	for _, i := range []int{0, 777, 1999} {
		k := fmt.Sprintf("key-%05d", i)
		v, err := s.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("v1-%d", i) {
			t.Fatalf("snapshot Get(%s) after compaction = %q, %v", k, v, err)
		}
	}
	it, err := s.NewIterator([]byte("key-00100"), []byte("key-00110"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		if string(it.Value()) != fmt.Sprintf("v1-%d", 100+n) {
			t.Fatalf("scan after compaction: %s = %q", it.Key(), it.Value())
		}
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scan saw %d entries, want 10", n)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	afterClose, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(afterClose) >= len(beforeClose) {
		t.Fatalf("closing the snapshot freed no files: %d before, %d after", len(beforeClose), len(afterClose))
	}
	if m := db.Metrics(); m.BytesSnapshotGC == 0 || m.BytesCompactionRead == 0 {
		t.Fatalf("snapshot GC reclaimed %d B, compactions read %d B: want both counted", m.BytesSnapshotGC, m.BytesCompactionRead)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("OpenSnapshots = %d after close", db.OpenSnapshots())
	}
}

// zombieStore opens a store with o, pins a snapshot on its flushed tables,
// then overwrites every key and compacts the whole tree: the tables the
// merges consume stay on disk as zombies only the snapshot keeps.
func zombieStore(t *testing.T, o Options) (*DB, *Snapshot) {
	t.Helper()
	db := mustOpen(t, o)
	fill := func(round int) {
		for i := 0; i < 2000; i++ {
			if err := clocked(db).Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	fill(1)
	s, err := clocked(db).NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fill(2)
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	return db, s
}

// strayLogs lists the commit logs in fs that neither a table db's version
// lists pins nor back its memtable.
func strayLogs(t *testing.T, db *DB, fs vfs.FS) []string {
	t.Helper()
	keep := map[string]bool{}
	db.mu.Lock()
	l := db.liveLocked()
	keep[wal.FileName(l.log.ID())] = true
	for _, id := range l.prev {
		keep[wal.FileName(id)] = true
	}
	db.mu.Unlock()
	db.versionMu.RLock()
	for _, files := range db.version.Levels {
		for _, f := range files {
			for _, id := range f.Logs() {
				keep[wal.FileName(id)] = true
			}
		}
	}
	db.versionMu.RUnlock()
	return slices.DeleteFunc(logFiles(t, fs), func(name string) bool { return keep[name] })
}

// TestCloseRetiresZombies: a store closed while a snapshot still pins
// zombies removes them, and under TRIAD-LOG the commit logs only they
// pinned. Afterwards every table file on disk is listed, and every commit
// log is pinned by a listed CL-SSTable or backs the memtable.
func TestCloseRetiresZombies(t *testing.T) {
	for _, mode := range []struct {
		name    string
		options func(*vfs.MemFS) Options
	}{{"default", smallOptions}, {"triad", triadSmall}} {
		t.Run(mode.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			db, s := zombieStore(t, mode.options(fs))
			defer s.Close()
			if len(unlistedTables(t, db, fs)) == 0 {
				t.Fatal("no zombie table on disk before Close")
			}
			if mode.name == "triad" && len(strayLogs(t, db, fs)) == 0 {
				t.Fatal("no commit log only zombies pin before Close")
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if names := unlistedTables(t, db, fs); len(names) > 0 {
				t.Errorf("table files no level lists after Close: %v", names)
			}
			if names := strayLogs(t, db, fs); len(names) > 0 {
				t.Errorf("commit logs neither pinned nor backing the memtable after Close: %v", names)
			}
			// The snapshot outlived its store: its Close finds nothing left
			// to reclaim.
			files, _ := fs.List("")
			gc := db.Metrics().BytesSnapshotGC
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if after, _ := fs.List(""); !slices.Equal(after, files) {
				t.Errorf("files %v after the snapshot closed, %v before", after, files)
			}
			if after := db.Metrics().BytesSnapshotGC; after != gc || db.OpenSnapshots() != 0 {
				t.Errorf("snapshot GC %d B → %d B and %d snapshots open after a Close past the store's", gc, after, db.OpenSnapshots())
			}
		})
	}
}

// TestSnapshotGCCrashPoints crashes the Close of the one snapshot that pins
// zombies after every change it makes to the filesystem — the removal of
// each zombie table and, under TRIAD-LOG, of each commit log only zombies
// pinned — and reopens each image: every acknowledged write must be there,
// and no table or log the reopened store does not need.
func TestSnapshotGCCrashPoints(t *testing.T) {
	for _, mode := range []struct {
		name    string
		options func(*vfs.MemFS) Options
	}{{"default", smallOptions}, {"triad", triadSmall}} {
		t.Run(mode.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			o := mode.options(fs)
			o.DisableAutoCompaction = true // nothing but the snapshot's Close changes the filesystem
			db, s := zombieStore(t, o)
			acked := map[string]string{}
			for i := 0; i < 2000; i++ {
				acked[fmt.Sprintf("key-%05d", i)] = fmt.Sprintf("v2-%d", i)
			}
			var logs []string
			if mode.name == "triad" {
				if logs = strayLogs(t, db, fs); len(logs) == 0 {
					t.Fatal("no commit log only zombies pin")
				}
			}
			zombies := unlistedTables(t, db, fs)
			if len(zombies) == 0 {
				t.Fatal("no zombie table on disk")
			}
			var removed []string
			images := 0
			imageChanges(fs, func(what string, image *vfs.MemFS) {
				images++
				removed = append(removed, strings.TrimPrefix(what, "remove "))
				img := crashImage{n: images, what: what, fs: image, o: o, acked: acked}
				if err := img.check(t); err != nil {
					t.Errorf("crash after %q, image %d: %v", what, images, err)
				}
			})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			fs.SetHooks(vfs.Hooks{})
			slices.Sort(removed)
			if want := slices.Sorted(slices.Values(append(zombies, logs...))); !slices.Equal(removed, want) {
				t.Fatalf("the snapshot's Close made the changes %v, want the removal of %v", removed, want)
			}
			t.Logf("%d images, %d zombie tables, %d logs", images, len(zombies), len(logs))
		})
	}
}

var errRemoveRefused = errors.New("table removal refused")

// TestSnapshotGCRemovalFailure: when the last pinning snapshot cannot
// remove its zombies, its Close still succeeds; the snapshot_gc event
// names the error and counts no byte it did not free, and the next Open
// deletes what was left behind.
func TestSnapshotGCRemovalFailure(t *testing.T) {
	for _, mode := range []struct {
		name    string
		options func(*vfs.MemFS) Options
	}{{"default", smallOptions}, {"triad", triadSmall}} {
		t.Run(mode.name, func(t *testing.T) {
			// While refusing is set, removals of table files fail.
			var refusing atomic.Bool
			fs := vfs.NewMemFS()
			fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
				if refusing.Load() && op.Kind == vfs.OpRemove && (strings.HasSuffix(op.Name, ".sst") || strings.HasSuffix(op.Name, ".clidx")) {
					return errRemoveRefused
				}
				return nil
			}})
			o := mode.options(fs)
			o.DisableAutoCompaction = true // no merge may meet the refusal
			o.Events = obs.NewJournal(64)
			db, s := zombieStore(t, o)
			zombies := unlistedTables(t, db, fs)
			if len(zombies) == 0 {
				t.Fatal("no zombie table on disk")
			}
			refusing.Store(true)
			if err := s.Close(); err != nil {
				t.Fatalf("snapshot Close = %v, want nil", err)
			}
			refusing.Store(false)
			ev := o.Events.Events(1)[0]
			if ev.Kind != obs.EventSnapshotGC || !strings.Contains(ev.Detail, errRemoveRefused.Error()) {
				t.Fatalf("last event %v %q, want a snapshot_gc naming %q", ev.Kind, ev.Detail, errRemoveRefused)
			}
			if gc := db.Metrics().BytesSnapshotGC; ev.In != 0 || gc != 0 {
				t.Fatalf("snapshot GC counted %d B (event %d B) with nothing removed", gc, ev.In)
			}
			if left := unlistedTables(t, db, fs); !slices.Equal(left, zombies) {
				t.Fatalf("unlisted tables %v after the refused removal, want %v", left, zombies)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			o.Events = nil
			db = mustOpen(t, o)
			if left := unlistedTables(t, db, fs); len(left) > 0 {
				t.Errorf("table files no level lists after reopen: %v", left)
			}
			if names := strayLogs(t, db, fs); len(names) > 0 {
				t.Errorf("commit logs neither pinned nor backing the memtable after reopen: %v", names)
			}
		})
	}
}

// TestSnapshotClosedErrors: reads on a closed snapshot fail with
// ErrSnapshotClosed; Close is idempotent; iterators opened before Close
// stay valid until they close (they hold their own pin).
func TestSnapshotClosedErrors(t *testing.T) {
	db := mustOpen(t, smallOptions(vfs.NewMemFS()))
	for i := 0; i < 100; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	s, err := clocked(db).NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, err := s.Get([]byte("k000")); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("Get after Close = %v, want ErrSnapshotClosed", err)
	}
	if it2, err := s.NewIterator(nil, nil); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("NewIterator after Close = %v, want ErrSnapshotClosed", err)
	} else if it2 != nil {
		it2.Close()
	}
	// The pre-Close iterator keeps working: it holds a pin reference.
	n := 0
	for it.Next() {
		n++
	}
	if n != 100 {
		t.Fatalf("iterator after snapshot Close saw %d entries, want 100", n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRefcountAccounting: overlapping snapshots pin shared
// files; releases are exact (no file freed early, none leaked).
func TestSnapshotRefcountAccounting(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	for i := 0; i < 1000; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v1"))
	}
	db.Flush()
	s1, err := clocked(db).NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := clocked(db).NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if db.OpenSnapshots() != 2 {
		t.Fatalf("OpenSnapshots = %d, want 2", db.OpenSnapshots())
	}
	for i := 0; i < 1000; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v2"))
	}
	db.Flush()
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// s1 closes; s2 still pins the shared zombies, so both must read v1.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if v, err := s2.Get([]byte("k00042")); err != nil || string(v) != "v1" {
		t.Fatalf("s2 after s1.Close: Get = %q, %v; want v1", v, err)
	}
	before, _ := fs.List("")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.List("")
	if len(after) >= len(before) {
		t.Fatalf("last snapshot close freed no files (%d -> %d)", len(before), len(after))
	}
	if db.KeptVersions() != 0 {
		t.Fatalf("memtables keep %d versions after Flush", db.KeptVersions())
	}
}

// TestSnapshotLeakFinalizer: a snapshot dropped without Close is
// reclaimed by its finalizer, which releases the pin and counts the
// leak — including when open iterators (which hold extra pin
// references) are leaked along with it, or leaked after the snapshot
// handle itself was closed.
func TestSnapshotLeakFinalizer(t *testing.T) {
	// Leaks on purpose, so it opts out of mustOpen's open-snapshot check.
	db := mustOpenLeaking(t, smallOptions(vfs.NewMemFS()))
	clocked(db).Put([]byte("k"), []byte("v"))
	waitReclaimed := func(wantLeaks int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for db.LeakedSnapshots() < wantLeaks || db.OpenSnapshots() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("leak not reclaimed: leaks=%d (want %d) open=%d", db.LeakedSnapshots(), wantLeaks, db.OpenSnapshots())
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
	if _, err := clocked(db).NewSnapshot(); err != nil { // dropped without Close
		t.Fatal(err)
	}
	waitReclaimed(1)
	func() {
		// Snapshot handle AND an iterator (refs=2), both dropped.
		s, err := clocked(db).NewSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.NewIterator(nil, nil); err != nil { // both dropped
			t.Fatal(err)
		}
	}()
	waitReclaimed(2)
	func() {
		// Handle closed properly, iterator leaked (refs stuck at 1).
		s, err := clocked(db).NewSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.NewIterator(nil, nil); err != nil { // dropped without Close
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	waitReclaimed(3)
	// A fully closed snapshot must NOT count as a leak.
	s, err := clocked(db).NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	if n := db.LeakedSnapshots(); n != 3 {
		t.Fatalf("clean close counted as leak: LeakedSnapshots = %d, want 3", n)
	}
}

// TestIteratorStreamsLazily: creating an iterator over a large store
// and reading a few entries must not materialize the range — the
// regression the streaming redesign exists to prevent. Guarded by a
// generous allocation bound rather than an exact count.
func TestIteratorStreamsLazily(t *testing.T) {
	db := mustOpen(t, smallOptions(vfs.NewMemFS()))
	const keys = 50000
	for i := 0; i < keys; i++ {
		if err := clocked(db).Put([]byte(fmt.Sprintf("k%06d", i)), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		it, err := clocked(db).NewIterator(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10 && it.Next(); i++ {
		}
		it.Close()
	})
	// The old iterator cloned every one of the 50k entries (several
	// allocations each); streaming needs a few hundred for the sources
	// and block reads.
	if allocs > 5000 {
		t.Fatalf("short scan allocated %.0f objects — iterator is materializing the range", allocs)
	}
}

// TestSnapshotOverlayIsPerMemtable: a version kept for one snapshot when
// an older live memtable overwrote it must not answer for a later
// snapshot whose own memtable did not hold the key at capture — that
// snapshot's version is in a table, and newer.
func TestSnapshotOverlayIsPerMemtable(t *testing.T) {
	o := smallOptions(vfs.NewMemFS())
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	k := []byte("k")
	put := func(v string) {
		t.Helper()
		if err := clocked(db).Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	put("v1")
	s0, err := clocked(db).NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	put("v2") // overwrites v1 in place: preserved for s0
	flush()
	put("v3")
	flush()
	s1, err := clocked(db).NewSnapshot() // its memtable does not hold k
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	put("v4")
	for _, c := range []struct {
		s    *Snapshot
		want string
	}{{s0, "v1"}, {s1, "v3"}} {
		if v, err := c.s.Get(k); err != nil || string(v) != c.want {
			t.Fatalf("snapshot at %d: Get = %q, %v; want %q", c.s.Seq(), v, err, c.want)
		}
		it, err := c.s.NewIterator(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !it.Next() || string(it.Value()) != c.want || it.Next() {
			t.Fatalf("snapshot at %d: scan reads %q, want only %q", c.s.Seq(), it.Value(), c.want)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotReadsAcrossWriteBack: a key's versions span a queued
// memtable and the live one, into which TRIAD-MEM wrote the queued one's
// hot version back as it began that memtable's flush, and the key is
// overwritten after. Each snapshot reads the version that was newest when
// it was taken — also the one whose version the queued memtable alone
// keeps — both while the flush is held up and after it.
func TestSnapshotReadsAcrossWriteBack(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	// Hold up the flush at its table's creation, after the write-back.
	parked, release := make(chan struct{}, 1), make(chan struct{})
	fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpCreate && (strings.HasSuffix(op.Name, ".sst") || strings.HasSuffix(op.Name, ".clidx")) {
			select {
			case parked <- struct{}{}:
			default:
			}
			<-release
		}
		return nil
	}})
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark)
	hot := []byte("hot")
	put := func(k []byte, v string) {
		t.Helper()
		if err := clocked(db).Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	snap := func() *Snapshot {
		t.Helper()
		s, err := clocked(db).NewSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	for i := 0; i < 19; i++ {
		put(hot, fmt.Sprintf("a%02d", i))
		put([]byte(fmt.Sprintf("cold%02d", i)), "c")
	}
	s0 := snap() // reads a18, which only the queued memtable will keep
	put(hot, "a19")
	s1 := snap()
	db.mu.Lock()
	err := db.sealLocked("test")
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	db.mu.Lock()
	e, ok := db.liveLocked().mem.Get(hot)
	queued := len(db.mems)
	db.mu.Unlock()
	if !ok || string(e.Value) != "a19" || queued != 2 {
		t.Fatalf("live memtable holds %q (%v) beside %d queued memtables; want a19 written back beside one", e.Value, ok, queued-1)
	}
	put(hot, "b")
	s2 := snap()
	put(hot, "c")
	check := func(when string) {
		t.Helper()
		for _, c := range []struct {
			s    *Snapshot
			want string
		}{{s0, "a18"}, {s1, "a19"}, {s2, "b"}} {
			if v, err := c.s.Get(hot); err != nil || string(v) != c.want {
				t.Fatalf("%s: snapshot at %d reads %q, %v; want %q", when, c.s.Seq(), v, err, c.want)
			}
		}
		if v, err := db.Get(hot); err != nil || string(v) != "c" {
			t.Fatalf("%s: Get reads %q, %v; want c", when, v, err)
		}
	}
	check("flush held up")
	unpark()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
}

// TestKeptVersionsBoundedByOpenSnapshots hands one snapshot over each
// round — the next one opens, then the last one closes — and overwrites
// 100 keys five times a round. The memtables keep at most the one version
// of each key that the open snapshot reads, and none once a Flush has
// emptied them, however many rounds and flushes went before. Every fifth
// round a twin opens at the same sequence, and the round ends by closing
// one twin, overwriting every key again and reading the versions the other
// still pins, then closing the other.
func TestKeptVersionsBoundedByOpenSnapshots(t *testing.T) {
	for _, triad := range []bool{false, true} {
		fs := vfs.NewMemFS()
		o := DefaultOptions(fs) // memtables no round fills: only Flush seals
		if triad {
			o = TriadOptions(fs)
		}
		o.DisableAutoCompaction = true
		db := mustOpen(t, o)
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
		latest := map[int]string{}
		var snap *Snapshot
		for round := 1; round <= 40; round++ {
			next, err := clocked(db).NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			var twin *Snapshot
			if round%10 == 5 {
				if twin, err = clocked(db).NewSnapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if snap != nil {
				snap.Close()
			}
			snap = next
			pinned := maps.Clone(latest)
			if twin != nil && (twin.Seq() != snap.Seq() || db.OpenSnapshots() != 2) {
				t.Fatalf("triad=%v round %d: twins at %d and %d, %d snapshots open", triad, round, snap.Seq(), twin.Seq(), db.OpenSnapshots())
			}
			put := func(k int, v string) {
				if err := clocked(db).Put(key(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				latest[k] = v
			}
			for i := 0; i < 500; i++ {
				k := i % 100
				if i >= 400 {
					k = i % 10 // hot keys, which a TRIAD-MEM flush writes back
				}
				put(k, fmt.Sprintf("r%d-%d", round, i))
			}
			if n := db.KeptVersions(); n > 100 {
				t.Fatalf("triad=%v round %d: %d versions kept for one snapshot over 100 keys", triad, round, n)
			}
			if want := fmt.Sprintf("r%d-490", round-1); round > 1 {
				if v, err := snap.Get(key(0)); err != nil || string(v) != want {
					t.Fatalf("triad=%v round %d: snapshot Get = %q, %v; want %q", triad, round, v, err, want)
				}
			}
			if twin != nil {
				snap.Close()
				if n := db.OpenSnapshots(); n != 1 {
					t.Fatalf("triad=%v round %d: %d snapshots open after one twin closed", triad, round, n)
				}
				for k, v := range maps.Clone(latest) {
					put(k, v)
				}
				for k, v := range pinned {
					if got, err := twin.Get(key(k)); err != nil || string(got) != v {
						t.Fatalf("triad=%v round %d: twin Get(%s) = %q, %v; want %q", triad, round, key(k), got, err, v)
					}
				}
				twin.Close()
				if n := db.OpenSnapshots(); n != 0 {
					t.Fatalf("triad=%v round %d: %d snapshots open after both twins closed", triad, round, n)
				}
				snap = nil
			}
			if round%10 == 0 {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := db.KeptVersions(); n != 0 {
					t.Fatalf("triad=%v round %d: %d versions kept after Flush", triad, round, n)
				}
			}
		}
		snap.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotVersionsMatchOracle runs random puts and deletes over 50
// keys under TRIAD's small geometry, so that flushes, flush skips, hot
// write-backs and folds run underneath, while one to four snapshots open
// and close at random and Flush and CompactAll run now and then. Every
// open snapshot's Get and scans read exactly a map oracle as of its
// sequence. The memtables keep at most one version per key for each
// snapshot open since the last Flush: one open then, or opened after.
func TestSnapshotVersionsMatchOracle(t *testing.T) {
	const keys = 50
	type pinned struct {
		s    *Snapshot
		want map[string]string
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := vfs.NewMemFS()
		db := mustOpen(t, triadSmall(fs))
		key := func(i int) string { return fmt.Sprintf("key-%02d", i) }
		check := func(step int, p pinned, full bool) {
			t.Helper()
			for i := 0; i < keys; i++ {
				if !full && rng.Intn(10) > 0 {
					continue
				}
				want, ok := p.want[key(i)]
				v, err := p.s.Get([]byte(key(i)))
				if ok && (err != nil || string(v) != want) || !ok && !errors.Is(err, ErrNotFound) {
					t.Fatalf("seed %d step %d: snapshot at %d Get(%s) = %.12q, %v; want %.12q (present %v)",
						seed, step, p.s.Seq(), key(i), v, err, want, ok)
				}
			}
			lo, hi := rng.Intn(keys), rng.Intn(keys+1)
			start, limit := []byte(key(lo)), []byte(key(hi))
			if full {
				start, limit = nil, nil
			}
			it, err := p.s.NewIterator(start, limit)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for it.Next() {
				got = append(got, string(it.Key())+"="+string(it.Value()))
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			var want []string
			for k, v := range p.want {
				if full || k >= string(start) && k < string(limit) {
					want = append(want, k+"="+v)
				}
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: snapshot at %d scans [%s, %s) to %d entries, want %d",
					seed, step, p.s.Seq(), start, limit, len(got), len(want))
			}
		}
		live := map[string]string{}
		var open []pinned
		sinceFlush := 0 // snapshots open at the last Flush or opened since
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 5 && len(open) < 4 || len(open) == 0:
				s, err := clocked(db).NewSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				open = append(open, pinned{s, maps.Clone(live)})
				sinceFlush++
			case r < 10 && len(open) > 1:
				i := rng.Intn(len(open))
				check(step, open[i], true)
				open[i].s.Close()
				open = slices.Delete(open, i, i+1)
			case r < 11:
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				sinceFlush = len(open)
			case r < 12:
				if err := db.CompactAll(); err != nil {
					t.Fatal(err)
				}
			case r < 25:
				k := key(rng.Intn(keys))
				if err := clocked(db).Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(live, k)
			default:
				k, v := key(rng.Intn(keys)), fmt.Sprintf("%d-%s", step, strings.Repeat("v", rng.Intn(300)))
				if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				live[k] = v
			}
			check(step, open[rng.Intn(len(open))], step%100 == 0)
			if n := db.KeptVersions(); n > keys*sinceFlush {
				t.Fatalf("seed %d step %d: %d versions kept for %d snapshots over %d keys", seed, step, n, sinceFlush, keys)
			}
		}
		for _, p := range open {
			check(-1, p, true)
			p.s.Close()
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
