package lsm

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/compaction"
	"repro/internal/leakcheck"
	"repro/internal/manifest"
	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// unpinnedLogs lists the commit-log files in fs that recovery would replay:
// those no CL-SSTable of db's current version pins, at or above its log
// number. (A merge unpins a log a moment before it removes the file; below
// the log number, such a log is already as good as gone.)
func unpinnedLogs(t *testing.T, db *DB, fs vfs.FS) []string {
	t.Helper()
	pinned := map[string]bool{}
	db.versionMu.RLock()
	for _, files := range db.version.Levels {
		for _, f := range files {
			for _, id := range f.Logs() {
				pinned[wal.FileName(id)] = true
			}
		}
	}
	logNumber := db.logNumber
	db.versionMu.RUnlock()
	return slices.DeleteFunc(logFiles(t, fs), func(name string) bool {
		var id uint64
		fmt.Sscanf(name, "%d.log", &id)
		return pinned[name] || id < logNumber
	})
}

// foldL0 folds all of db's L0, CL-SSTables, as a compaction round would,
// and fails if the fold changed which commit logs are on disk. Nothing
// else may be writing to db meanwhile.
func foldL0(t *testing.T, db *DB, fs vfs.FS) {
	t.Helper()
	db.compactionMu.Lock()
	defer db.compactionMu.Unlock()
	db.versionMu.RLock()
	l0 := slices.Clone(db.version.Levels[0])
	db.versionMu.RUnlock()
	if len(l0) < 2 {
		return
	}
	before := logFiles(t, fs)
	if err := db.fold(&compaction.Job{Level: 0, Inputs: l0, Fold: true, Rule: compaction.RuleFold}); err != nil {
		t.Fatal(err)
	}
	if after := logFiles(t, fs); !slices.Equal(before, after) {
		t.Fatalf("a fold changed the logs on disk from %v to %v", before, after)
	}
}

// TestHotKeysRelogThemselves: a hot set that is rewritten all the time needs
// no help moving from one commit log to the next — by the time a log is
// removed, two logs later, every key has a newer record. Rotations copy next
// to nothing and the log costs its framing, not a second copy of the
// memtable per rotation.
func TestHotKeysRelogThemselves(t *testing.T) {
	o := smallOptions(vfs.NewMemFS())
	o.TriadMem = true
	o.MemtableBytes = 64 << 10
	o.CommitLogBytes = 64 << 10
	o.FlushThresholdBytes = 64 << 10
	db := mustOpen(t, o)
	rng := rand.New(rand.NewSource(1))
	for db.Metrics().FlushSkips < 50 {
		if err := db.Put([]byte(fmt.Sprintf("k%07d", rng.Intn(60))), make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m.Flushes != 0 {
		t.Fatalf("%d flushes of a 60-key working set", m.Flushes)
	}
	if m.BytesRelogged*100 > m.BytesLogged {
		t.Fatalf("50 rotations copied %d B of %d B logged, want at most 1%%", m.BytesRelogged, m.BytesLogged)
	}
	if ratio := float64(m.BytesLogged) / float64(m.UserBytes); ratio >= 1.15 {
		t.Fatalf("logged %d B for %d user bytes: %.3fx", m.BytesLogged, m.UserBytes, ratio)
	}
}

// TestAtMostTwoLogsBackTheMemtable: after every commit, every entry of the
// live memtable points into the current log or the previous one, and the
// only other unpinned logs on disk belong to memtables still queued for
// flush; once the queue has drained, the current and the previous log are
// exactly what is there. The one exception is a reopened memtable, which
// points into every log it was replayed from until its first skip or seal.
func TestAtMostTwoLogsBackTheMemtable(t *testing.T) {
	for _, triadLog := range []bool{false, true} {
		t.Run(fmt.Sprintf("TriadLog=%v", triadLog), func(t *testing.T) {
			fs := vfs.NewMemFS()
			o := smallOptions(fs)
			o.TriadMem, o.TriadLog = true, triadLog
			o.CommitLogBytes = 8 << 10
			o.FlushThresholdBytes = 4 << 10
			db := mustOpen(t, o)
			rng := rand.New(rand.NewSource(2))
			twoLogs, moreLogs := 0, 0
			var reopened uint64 // the reopened store's fresh log
			var before metrics.Snapshot
			for i := 0; i < 6000; i++ {
				// Reopen once, mid-run, over a memtable backed by two logs.
				if i >= 3700 && reopened == 0 && len(db.prev) == 1 && db.log.Size() > 0 {
					before = db.Metrics()
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db = mustOpen(t, o)
					reopened = db.log.ID()
				}
				k := fmt.Sprintf("hot-%02d", rng.Intn(20))
				if i%25 == 24 {
					k = fmt.Sprintf("cold-%06d", i)
				}
				if err := db.Put([]byte(k), make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
				if i%1500 == 1499 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}

				db.mu.Lock()
				held := map[uint64]bool{db.log.ID(): true}
				for _, id := range db.prev {
					held[id] = true
				}
				switch {
				case len(db.prev) == 1:
					twoLogs++
				case len(db.prev) > 1 && db.log.ID() == reopened:
					moreLogs++
				case len(db.prev) > 1:
					t.Fatalf("put %d: the memtable is backed by logs %v and %d", i, db.prev, db.log.ID())
				}
				for it := db.mem.NewIter(); it.Next(); {
					if e := it.Entry(); !held[e.LogID] {
						t.Fatalf("put %d: %q points into log %d, current and previous are %v", i, e.Key, e.LogID, held)
					}
				}
				// The flush task only ever takes logs away from here on, so
				// the queue as it is now bounds what the listing finds.
				queued, drained := 0, len(db.imm) == 0 && db.flushing == 0
				for _, imm := range db.imm {
					queued += 1 + len(imm.prev)
				}
				db.mu.Unlock()
				logs := unpinnedLogs(t, db, fs)
				if len(logs) > len(held)+queued || (drained && len(logs) != len(held)) {
					t.Fatalf("put %d: unpinned logs %v with %d held by the memtable and %d by the flush queue", i, logs, len(held), queued)
				}
			}
			m := db.Metrics().Add(before)
			if m.FlushSkips == 0 || m.Flushes < 5 || m.BytesRelogged == 0 || twoLogs == 0 || moreLogs == 0 {
				t.Fatalf("%d skips, %d flushes, %d B carried, %d commits over two logs and %d over more after the reopen: the test needs all of them",
					m.FlushSkips, m.Flushes, m.BytesRelogged, twoLogs, moreLogs)
			}
		})
	}
}

// TestSealCarriesStragglersIntoIndex: a cold entry nobody rewrote is carried
// from log to log by the skips and, when its memtable is sealed while it
// still points into the previous log, by the flush into the sealed log — so
// the CL-SSTable pins one log, the previous one is gone, and the entry is
// served from the table, before and after a reopen.
func TestSealCarriesStragglersIntoIndex(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	db := mustOpen(t, o)
	if err := db.Put([]byte("straggler"), []byte("written once")); err != nil {
		t.Fatal(err)
	}
	// Three skips: retained, carried by the second, retained again by the
	// third — it now points into the previous log.
	for i := 0; db.Metrics().FlushSkips < 3; i++ {
		if err := db.Put([]byte(fmt.Sprintf("hot-%d", i%10)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := db.mem.Get([]byte("straggler"))
	if !ok || len(db.prev) != 1 || e.LogID != db.prev[0] || db.Metrics().BytesRelogged == 0 {
		t.Fatalf("straggler %+v (in memtable: %v) should have been carried once and point into the previous log %v", e, ok, db.prev)
	}
	prev, cur := db.prev[0], db.log.ID()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.mem.Get([]byte("straggler")); ok {
		t.Fatal("the cold straggler stayed in the memtable across the flush")
	}
	db.versionMu.RLock()
	l0 := db.version.Levels[0]
	db.versionMu.RUnlock()
	if len(l0) != 1 || l0[0].Kind != manifest.KindCLSST || l0[0].LogID != cur {
		t.Fatalf("L0 after the flush: %v, want one CL-SSTable over log %d", l0, cur)
	}
	if fs.Exists(wal.FileName(prev)) || !fs.Exists(wal.FileName(cur)) {
		t.Fatalf("logs after the flush: %v, want %d pinned and %d gone", logFiles(t, fs), cur, prev)
	}
	for _, reopened := range []bool{false, true} {
		if reopened {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = mustOpen(t, o)
		}
		if v, err := db.Get([]byte("straggler")); err != nil || string(v) != "written once" {
			t.Fatalf("Get(straggler) = %q, %v (reopened: %v)", v, err, reopened)
		}
		if err := db.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRelogAccountsForEverythingButCommits: BytesRelogged is every byte the
// engine appended to a log on its own account — carried by skips and
// flushes, hot keys written back — so what is left of BytesLogged is the
// user's bytes and one record header each, exactly. Open appends nothing,
// a reopen included: the reopened memtable points into the logs it was
// replayed from.
func TestRelogAccountsForEverythingButCommits(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	const keyLen, valLen, header = 10, 90, 21
	var user, logged, relogged int64
	for half := 0; half < 2; half++ {
		db := mustOpen(t, o)
		if m := db.Metrics(); m.BytesLogged != 0 {
			t.Fatalf("open %d logged %d B", half, m.BytesLogged)
		}
		rng := rand.New(rand.NewSource(int64(half)))
		for i := 0; i < 20000; i++ {
			k := fmt.Sprintf("hot-%06d", rng.Intn(20))
			if i%50 == 49 {
				k = fmt.Sprintf("cold%06d", i)
			}
			if err := db.Put([]byte(k), make([]byte, valLen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		m := db.Metrics()
		if m.FlushSkips == 0 || m.Flushes == 0 || m.HotKeysKeptInMem == 0 {
			t.Fatalf("%d skips, %d flushes, %d hot keys written back: the test needs all three", m.FlushSkips, m.Flushes, m.HotKeysKeptInMem)
		}
		user, logged, relogged = user+m.UserBytes, logged+m.BytesLogged, relogged+m.BytesRelogged
	}
	if relogged == 0 || (logged-relogged)*(keyLen+valLen) != user*(header+keyLen+valLen) {
		t.Fatalf("logged %d B, %d of them re-logged, for %d user bytes: the rest is not %d/%d of the user's",
			logged, relogged, user, header+keyLen+valLen, keyLen+valLen)
	}
}

// TestMergedLogsStayRetired: a merge of L0's CL-SSTables into L1 journals
// its edit a step before it removes the commit logs they pinned. A crash in
// between, while a flush carries on and installs a newer version of a key,
// leaves those logs on disk and unpinned. Recovery must delete them by the
// log number the flush journaled, not replay their superseded records over
// the newer table.
func TestMergedLogsStayRetired(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	o.DisableAutoCompaction = true // the merge runs when the test says
	db := mustOpen(t, o)
	flushVersion := func(v string) {
		t.Helper()
		// Filler written once each, like the key: nothing is hot, so the
		// key goes to the table rather than staying in the memtable.
		for i := 0; i < 20; i++ {
			if err := db.Put([]byte(fmt.Sprintf("filler-%s-%02d", v, i)), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Put([]byte("k"), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flushVersion("v1")
	flushVersion("v2")
	merged := map[string][]byte{}
	for _, name := range logFiles(t, fs) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		merged[name] = make([]byte, size)
		if _, err := f.ReadAt(merged[name], 0); err != nil && size > 0 {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if n := db.NumLevelFiles()[0]; n != 0 {
		t.Fatalf("%d tables left in L0 by the merge", n)
	}
	flushVersion("v3")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash image: the logs the merge retired are back on disk.
	var restored []string
	for name, b := range merged {
		if fs.Exists(name) {
			continue // the live log, which the merge did not retire
		}
		f, _ := fs.Create(name)
		f.Write(b)
		f.Close()
		restored = append(restored, name)
	}
	if len(restored) < 2 {
		t.Fatalf("the merge retired logs %v, want the two its tables pinned", restored)
	}
	db = mustOpen(t, o)
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v3" {
		t.Fatalf("Get(k) = %q, %v after recovery; want v3, the version flushed after the merge", v, err)
	}
	for _, name := range restored {
		if fs.Exists(name) {
			t.Fatalf("retired log %s outlived recovery", name)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// imageChanges hands onImage a copy of fs after every call that changes
// what is on disk, until fs's hooks are replaced. Every image is a state the
// filesystem was in (vfs.Hooks.After).
func imageChanges(fs *vfs.MemFS, onImage func(what string, image *vfs.MemFS)) {
	fs.SetHooks(vfs.Hooks{After: func(op vfs.Op) {
		switch op.Kind {
		case vfs.OpCreate, vfs.OpWrite, vfs.OpRemove, vfs.OpRename:
			onImage(op.Kind.String()+" "+op.Name, fs.Clone())
		}
	}})
}

// failEveryNthWrite makes every nth write to fs fail with vfs.ErrInjected
// until fs's hooks are replaced.
func failEveryNthWrite(fs *vfs.MemFS, n int64) {
	var writes atomic.Int64
	fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpWrite && writes.Add(1)%n == 0 {
			return vfs.ErrInjected
		}
		return nil
	}})
}

// kv is one write of a crash run; value "" deletes the key.
type kv struct{ key, value string }

// apply writes op to db.
func (op kv) apply(db *DB) error {
	if op.value == "" {
		return db.Delete([]byte(op.key))
	}
	return db.Put([]byte(op.key), []byte(op.value))
}

// crashImage is one image of a crash run: the filesystem as it stood after
// one change, the options it reopens under, and what it must recover —
// every acknowledged write at its latest value (acked, "" deleted), except
// that the write in flight when the image was taken (inflight, if any) may
// or may not have made it. With none in flight, the store must also scan
// exactly as acknowledged.
type crashImage struct {
	n        int    // 1 for the run's first image
	what     string // the change after which it was taken
	fs       *vfs.MemFS
	o        Options
	acked    map[string]string
	inflight *kv
	// inspect, if set, looks at the reopened store once it has passed.
	inspect func(db *DB)
}

// check reopens the image and reports what it did not recover: the store
// must be consistent and hold every acknowledged write, with L0 newest
// first by MaxSeq, no table file its levels do not list, no byte appended
// to a log and no unpinned log but the fresh one and the replayed ones its
// memtable points into, and leave no file handle open once closed (or once
// its Open has failed).
func (img crashImage) check(t *testing.T) (err error) {
	ro := img.o
	ro.FS, ro.Events = img.fs, nil
	ro.DisableAutoCompaction = true // the files checked are recovery's alone
	open := leakcheck.Handles(img.fs, nil)
	defer func() {
		if n := open.Load(); n != 0 {
			err = errors.Join(err, fmt.Errorf("%d file handles left open", n))
		}
	}()
	db, err := Open(ro)
	if err != nil {
		return fmt.Errorf("Open: %w", err)
	}
	defer db.Close()
	if err := db.CheckConsistency(); err != nil {
		return fmt.Errorf("CheckConsistency: %w", err)
	}
	db.versionMu.RLock()
	l0 := db.version.Levels[0]
	db.versionMu.RUnlock()
	for i := 1; i < len(l0); i++ {
		if l0[i].MaxSeq > l0[i-1].MaxSeq {
			return fmt.Errorf("L0 table %d (max seq %d) follows the older table %d (max seq %d)", l0[i].ID, l0[i].MaxSeq, l0[i-1].ID, l0[i-1].MaxSeq)
		}
	}
	if tables := unlistedTables(t, db, img.fs); len(tables) > 0 {
		return fmt.Errorf("table files no level lists after recovery: %v", tables)
	}
	if n := db.Metrics().BytesLogged; n != 0 {
		return fmt.Errorf("recovery appended %d B to the logs", n)
	}
	if logs, want := unpinnedLogs(t, db, img.fs), recoveredLogs(db); !slices.Equal(logs, want) {
		return fmt.Errorf("unpinned logs after recovery %v, want the fresh log and the replayed ones the memtable points into %v", logs, want)
	}
	if img.inflight == nil {
		want := maps.Clone(img.acked)
		maps.DeleteFunc(want, func(_, v string) bool { return v == "" })
		it, err := db.NewIterator(nil, nil)
		if got := scan(t, it, err); !slices.Equal(got, oracleLines(want)) {
			return fmt.Errorf("the store scans %d entries, %d acknowledged", len(got), len(want))
		}
	}
	holds := func(key, want string) bool {
		got, err := db.Get([]byte(key))
		if want == "" {
			return errors.Is(err, ErrNotFound)
		}
		return err == nil && string(got) == want
	}
	for key, want := range img.acked {
		if in := img.inflight; in != nil && key == in.key && holds(key, in.value) {
			continue // the write in flight made it
		}
		if !holds(key, want) {
			got, err := db.Get([]byte(key))
			return fmt.Errorf("Get(%q) = %q, %v; acknowledged %q", key, got, err, want)
		}
	}
	if img.inspect != nil {
		img.inspect(db)
	}
	return nil
}

// TestLogRetirementCrashPoints crashes a skewed run — flush skips that carry
// stragglers, log-full and explicit flushes, under TRIAD-LOG folds of L0,
// every append synced — after every single change it makes to the
// filesystem, and reopens each image.
// Whatever was being retired at that moment, the store must come back
// consistent with every acknowledged write readable at its latest value (a
// log removed too early loses one; a log removed too late, or out of order,
// is replayed over the table its successor was flushed into and serves a
// stale one), and with no log on disk but the pinned ones and the fresh one.
func TestLogRetirementCrashPoints(t *testing.T) {
	for _, triadLog := range []bool{false, true} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("TriadLog=%v/seed=%d", triadLog, seed), func(t *testing.T) {
				failed := false
				retireRun(t, triadLog, seed, func(img crashImage) {
					if failed {
						return
					}
					if err := img.check(t); err != nil {
						failed = true
						t.Errorf("crash after %q, image %d: %v", img.what, img.n, err)
					}
				})
			})
		}
	}
}

// retireRun runs TestLogRetirementCrashPoints' skewed workload and hands
// onImage every image of it. The acked map of an image is the run's own
// and changes once onImage returns.
func retireRun(t *testing.T, triadLog bool, seed int64, onImage func(crashImage)) {
	// The whole run is laid out beforehand: images are checked on whichever
	// goroutine changed the filesystem, against a history nobody is writing.
	const puts = 1500
	rng := rand.New(rand.NewSource(seed))
	ops := make([]kv, puts)
	for i := range ops {
		v := fmt.Sprintf("%040d", i)
		switch r := rng.Intn(100); {
		case r < 55: // hot: rewritten in every log
			ops[i] = kv{fmt.Sprintf("hot-%d", rng.Intn(5)), v}
		case r < 88: // warm: a version in every other log or so, and cold
			ops[i] = kv{fmt.Sprintf("warm-%02d", rng.Intn(30)), v}
		case r < 91:
			ops[i] = kv{fmt.Sprintf("warm-%02d", rng.Intn(30)), ""}
		default: // written once: carried from log to log until a flush
			ops[i] = kv{fmt.Sprintf("once-%04d", i), v}
		}
	}

	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.TriadMem, o.TriadLog = true, triadLog
	o.SyncWAL = true
	o.CommitLogBytes = 4 << 10
	o.FlushThresholdBytes = 4 << 10

	var acked atomic.Int64 // ops[:acked] returned; ops[acked] may be in flight
	state := map[string]string{}
	applied, images := 0, 0
	imageChanges(fs, func(what string, image *vfs.MemFS) {
		images++
		for n := int(acked.Load()); applied < n; applied++ {
			state[ops[applied].key] = ops[applied].value
		}
		img := crashImage{n: images, what: what, fs: image, o: o, acked: state}
		if applied < len(ops) {
			img.inflight = &ops[applied]
		}
		onImage(img)
	})

	db := mustOpen(t, o)
	for i, op := range ops {
		if err := op.apply(db); err != nil {
			t.Fatal(err)
		}
		acked.Store(int64(i + 1))
		if i%200 == 199 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if triadLog && i%400 == 199 {
				// The flush queue is drained and this goroutine is the only
				// writer: nothing but the fold touches the filesystem.
				foldL0(t, db, fs)
			}
		}
	}
	m := db.Metrics()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if m.FlushSkips < 10 || m.Flushes < 6 || m.BytesRelogged == 0 || images < puts || triadLog && m.Folds < 3 {
		t.Fatalf("%d skips, %d flushes, %d folds, %d B carried, %d images: the run has to exercise all of it",
			m.FlushSkips, m.Flushes, m.Folds, m.BytesRelogged, images)
	}
}

// TestFlushSparesNewerLogs: a flush's edit journals a log number no higher
// than any log a newer memtable still points into — the previous log of
// the live memtable, or of a memtable queued behind the flushed one — or
// recovery would delete that log and lose the entries only it holds. The
// flush is parked at its table until the newer memtable has such a log,
// then every change it makes is imaged and reopened.
func TestFlushSparesNewerLogs(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			fs := vfs.NewMemFS()
			o := smallOptions(fs)
			o.TriadMem = true
			o.CommitLogBytes = 4 << 10 // the first fill is a skip, the second a seal
			o.DisableAutoCompaction = true
			release := parkTables(fs)
			db := mustOpen(t, o)
			t.Cleanup(release)
			acked := map[string]string{}
			for ready := false; !ready; {
				k, v := fmt.Sprintf("key-%06d", len(acked)), fmt.Sprintf("%0100d", len(acked))
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				acked[k] = v
				db.mu.Lock()
				if queued {
					ready = len(db.imm) == 2 && len(db.imm[1].prev) == 1
				} else {
					ready = len(db.imm) == 1 && len(db.prev) == 1
				}
				db.mu.Unlock()
			}
			images := 0
			imageChanges(fs, func(what string, image *vfs.MemFS) {
				images++
				img := crashImage{n: images, what: what, fs: image, o: o, acked: acked}
				if err := img.check(t); err != nil {
					t.Errorf("crash after %q, image %d: %v", what, images, err)
				}
			})
			release()
			db.mu.Lock()
			for len(db.imm) > 0 || db.flushing > 0 {
				db.cond.Wait()
			}
			db.mu.Unlock()
			fs.SetHooks(vfs.Hooks{})
			if images == 0 || db.Metrics().Flushes == 0 {
				t.Fatalf("%d images, %d flushes", images, db.Metrics().Flushes)
			}
		})
	}
}
