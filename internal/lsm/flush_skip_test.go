package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/memtable"
	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// logFiles lists the commit-log files in fs.
func logFiles(t *testing.T, fs vfs.FS) []string {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, n := range names {
		if strings.HasSuffix(n, ".log") {
			logs = append(logs, n)
		}
	}
	return logs
}

// checkAgainst reads every key of the oracle back from db.
func checkAgainst(t *testing.T, db *DB, oracle map[string]string) {
	t.Helper()
	for k, want := range oracle {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("Get(%q) = %q, %v; oracle has %q", k, got, err, want)
		}
	}
}

// TestFlushDecidedByColdPart: a hot set that is rewritten constantly plus a
// 1 % trickle of new keys fills the commit log long before the memtable.
// The flush decision looks at what would reach L0 — the cold part — so the
// log is rotated many times per flush, every log-full flush that does
// happen carries at least FLUSH_TH of cold data, the journal says so for
// each decision — and which log a skip carried entries out of, retained and
// removed — and nothing is lost across a Close/reopen in the middle.
func TestFlushDecidedByColdPart(t *testing.T) {
	fs := vfs.NewMemFS()
	events := obs.NewJournal(4096)
	o := triadSmall(fs) // memtable 16 KiB <= half of the 64 KiB log, FLUSH_TH 8 KiB
	o.Events = events
	oracle := map[string]string{}
	var skips, flushes int64
	var reopened string // the logs the reopened memtable was replayed from
	put := func(db *DB, k string, i int) {
		v := fmt.Sprintf("%0100d", i)
		if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	for half := 0; half < 2; half++ {
		db := mustOpen(t, o)
		checkAgainst(t, db, oracle) // what the first half wrote, recovered
		if half == 1 {
			reopened = fmt.Sprint(liveRecord(db).prev)
		}
		for i := half * 20000; i < (half+1)*20000; i++ {
			if i%100 == 99 {
				put(db, fmt.Sprintf("cold-%06d", i), i)
			} else {
				put(db, fmt.Sprintf("hot-%02d", i%20), i)
			}
		}
		m := db.Metrics()
		skips, flushes = skips+m.FlushSkips, flushes+m.Flushes
		if half == 1 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if err := db.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, db, oracle)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if flushes == 0 || skips <= flushes {
		t.Fatalf("%d skips, %d flushes: want the log rotated more often than the memtable is flushed", skips, flushes)
	}

	var skipEvents, logFullFlushes, carrying int64
	var retained uint64 // by the skip before
	all := events.Events(0)
	for i := len(all) - 1; i >= 0; i-- { // oldest first
		e := all[i]
		if e.Kind != obs.EventFlush {
			continue
		}
		var cold, size, th int64
		switch {
		case e.Level == -1:
			var carried, entries, bytes int64
			var kept uint64
			head, tail, _ := strings.Cut(e.Detail, " bytes from logs ")
			from, tail, _ := strings.Cut(tail, "; ")
			if _, err := fmt.Sscanf(head, "skipped: cold %d of %d B under FLUSH_TH %d; carried %d of %d entries / %d",
				&cold, &size, &th, &carried, &entries, &bytes); err != nil {
				t.Fatalf("skip event %q: %v", e.Detail, err)
			}
			if _, err := fmt.Sscanf(tail, "log %d retained", &kept); err != nil || kept <= retained {
				t.Fatalf("skip event %q names no newer retained log than %d", e.Detail, retained)
			}
			if cold >= th || th != o.FlushThresholdBytes || size != e.In || carried > entries || (carried == 0) != (bytes == 0) {
				t.Fatalf("skip event does not explain itself: %s", e)
			}
			// The first skip of a memtable has no log before last to empty;
			// every later one empties exactly the log the skip before it
			// kept, and the first after the reopen the logs it replayed.
			switch from {
			case "[]":
				if carried != 0 {
					t.Fatalf("skip event %q carried out of no log", e.Detail)
				}
			case fmt.Sprint([]uint64{retained}):
				carrying++
			case reopened:
				reopened = ""
				carrying++
			default:
				t.Fatalf("skip after one that retained log %d: %s", retained, e)
			}
			retained = kept
			skipEvents++
		case strings.HasPrefix(e.Detail, "log-full"):
			if _, err := fmt.Sscanf(e.Detail, "log-full: cold %d of %d B,", &cold, &size); err != nil {
				t.Fatalf("flush event %q: %v", e.Detail, err)
			}
			if cold < o.FlushThresholdBytes {
				t.Fatalf("log-full flush of %d cold bytes, under FLUSH_TH %d: %s", cold, o.FlushThresholdBytes, e)
			}
			logFullFlushes++
		case !strings.HasPrefix(e.Detail, "memtable-full") && !strings.HasPrefix(e.Detail, "explicit"):
			t.Fatalf("flush event names no trigger: %s", e)
		}
	}
	if events.Dropped() != 0 || skipEvents != skips || logFullFlushes == 0 || carrying == 0 {
		t.Fatalf("journal has %d skip events (%d dropped, %d emptied a log) for %d skips, %d log-full flushes",
			skipEvents, events.Dropped(), carrying, skips, logFullFlushes)
	}
}

// TestTriadMemAtBenchGeometry is update_skewed on one shard of the
// registered benchmark (bench/store.go: memtable 256 KiB, log 1 MiB,
// FLUSH_TH 128 KiB; 8 B keys, 255 B values; 375 hot keys take 99 % of the
// puts; every 18 000 puts a drain), where the log fills long before the
// memtable: the engine must skip flushes, keep the hot set in memory
// across the flushes it makes — drains included — and not copy the
// memtable into the next log on a skip (the log then costs its framing
// plus the few stragglers a skip carries).
func TestTriadMemAtBenchGeometry(t *testing.T) {
	o := TriadOptions(vfs.NewMemFS())
	o.MemtableBytes = 256 << 10
	o.CommitLogBytes = 1 << 20
	o.FlushThresholdBytes = 128 << 10
	o.TargetFileBytes = 256 << 10
	o.BaseLevelBytes = 2 << 20
	o.BlockBytes = 4 << 10
	db := mustOpen(t, o)
	const hot, cold, rounds, perRound = 375, 124_625, 4, 18_000
	rng := rand.New(rand.NewSource(1))
	key, val := make([]byte, 8), make([]byte, 255)
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			k := rng.Intn(hot)
			if rng.Float64() >= 0.99 {
				k = hot + rng.Intn(cold)
			}
			binary.BigEndian.PutUint64(key, uint64(k))
			rng.Read(val)
			if err := clocked(db).Put(key, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	kept := float64(m.HotKeysKeptInMem) / float64(m.Flushes)
	wal := float64(m.BytesLogged) / float64(m.UserBytes)
	t.Logf("%d skips, %d flushes, %.0f hot keys kept per flush, wal %.3f per user byte", m.FlushSkips, m.Flushes, kept, wal)
	if m.FlushSkips == 0 || kept <= 100 {
		t.Fatalf("TRIAD-MEM idle: %d flush skips, %.0f hot keys kept per flush", m.FlushSkips, kept)
	}
	if wal >= 1.175 {
		t.Fatalf("wal %.3f bytes per user byte, want under 1.175: skips are copying the memtable", wal)
	}
}

// TestSkipNeedsRoomInLog: with a commit log much smaller than the memtable,
// a skip that would have to carry most of a log's worth of entries into the
// new one is not taken — it would come round again every few puts, copying
// the same entries each time. New keys that nobody rewrites are exactly
// that: their first log is retained for free, the second rotation flushes
// instead of carrying it, and not a byte is logged twice. A hot set that
// fits in half the log goes on skipping.
func TestSkipNeedsRoomInLog(t *testing.T) {
	for _, tc := range []struct {
		name        string
		keys        int // distinct keys, written round-robin
		wantFlushes bool
	}{
		{"new keys outgrow half the log", 1 << 30, true},
		{"hot set within half the log", 60, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := smallOptions(vfs.NewMemFS())
			o.TriadMem = true
			o.MemtableBytes = 256 << 10
			o.CommitLogBytes = 32 << 10
			o.FlushThresholdBytes = 256 << 10
			db := mustOpen(t, o)
			for i := 0; i < 5000; i++ {
				if err := clocked(db).Put([]byte(fmt.Sprintf("k%07d", i%tc.keys)), make([]byte, 200)); err != nil {
					t.Fatal(err)
				}
			}
			m := db.Metrics()
			if ratio := float64(m.BytesLogged) / float64(m.UserBytes); ratio >= 1.15 || m.BytesRelogged != 0 {
				t.Fatalf("logged %d B (%d of them twice) for %d user bytes (%.2fx) over %d skips",
					m.BytesLogged, m.BytesRelogged, m.UserBytes, ratio, m.FlushSkips)
			}
			if err := db.Flush(); err != nil { // drains the queue, and is one flush itself
				t.Fatal(err)
			}
			flushes := db.Metrics().Flushes - 1
			if m.FlushSkips == 0 || (flushes > 0) != tc.wantFlushes {
				t.Fatalf("%d skips, %d log-full flushes, want flushes: %v", m.FlushSkips, flushes, tc.wantFlushes)
			}
			if tc.wantFlushes && m.FlushSkips > flushes+1 {
				t.Fatalf("%d skips for %d flushes: a memtable of unrewritten keys was skipped twice", m.FlushSkips, flushes)
			}
		})
	}
}

// TestFailedSkipLeavesNoOrphanLog: a skip whose copy into the new log fails
// must not leave that log behind and must leave the two logs it found as
// they were, and recovery must not let any log — such an orphan on a
// filesystem that tears writes, planted here by hand — put an older record
// over a newer one.
func TestFailedSkipLeavesNoOrphanLog(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.TriadMem = true
	o.MemtableBytes = 64 << 10
	o.CommitLogBytes = 8 << 10 // ten 100-byte keys: a skip every ~60 puts
	o.FlushThresholdBytes = 32 << 10
	db := mustOpen(t, o)
	oracle := map[string]string{}
	created := fs.Stats.FilesCreated.Load()
	failEveryNthWrite(fs, 7)
	var failed int
	for i := 0; i < 3000; i++ {
		// Every 150th put is a key nobody writes again: something for each
		// skip to carry, so that the carrying can fail.
		k, v := fmt.Sprintf("hot-%d", i%10), fmt.Sprintf("%0100d", i)
		if i%150 == 149 {
			k = fmt.Sprintf("once-%d", i)
		}
		// A put that reports an error may or may not have been applied;
		// the retry that succeeds settles the key.
		for clocked(db).Put([]byte(k), []byte(v)) != nil {
			failed++
			// Whatever failed, the memtable is backed by the logs the engine
			// holds and nothing else is on disk.
			l := liveRecord(db)
			held := append(slices.Clone(l.prev), l.log.ID())
			var want []string
			for _, id := range held {
				want = append(want, wal.FileName(id))
			}
			if logs := logFiles(t, fs); !slices.Equal(logs, want) {
				t.Fatalf("log files after a failed put: %v, want previous and current %v", logs, want)
			}
			for it := l.mem.NewIter(); it.Next(); {
				if e := it.Entry(); !slices.Contains(held, e.LogID) {
					t.Fatalf("after a failed put %q points into log %d, held: %v", e.Key, e.LogID, want)
				}
			}
		}
		oracle[k] = v
	}
	fs.SetHooks(vfs.Hooks{})
	m := db.Metrics()
	// Every log this run created was one skip's, taken or failed.
	failedSkips := fs.Stats.FilesCreated.Load() - created - m.FlushSkips
	if failed == 0 || failedSkips == 0 || m.FlushSkips == 0 || m.BytesRelogged == 0 || m.Flushes != 0 {
		t.Fatalf("%d failed puts, %d failed skips, %d skips carrying %d B, %d flushes: the test needs failures and carrying skips only",
			failed, failedSkips, m.FlushSkips, m.BytesRelogged, m.Flushes)
	}
	checkAgainst(t, db, oracle)

	// Crash with a half-written rewrite on disk: a higher file id, older
	// records.
	w, err := wal.NewWriter(fs, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	for k := range oracle {
		if _, _, err := w.Append(base.Entry{Key: []byte(k), Value: []byte("stale"), Seq: 1, Kind: base.KindSet}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t, o)
	checkAgainst(t, db2, oracle)

	// Within one batch — one sequence — the later operation wins, after
	// recovery as before it.
	b := &Batch{}
	b.Put([]byte("twice"), []byte("first"))
	b.Put([]byte("twice"), []byte("second"))
	if err := clocked(db2).Apply(b); err != nil {
		t.Fatal(err)
	}
	oracle["twice"] = "second"
	db3 := mustOpen(t, o)
	checkAgainst(t, db3, oracle)
	if err := errors.Join(db.Close(), db2.Close()); err != nil { // the abandoned handles' pools
		t.Fatal(err)
	}
}

// TestHotWriteBackIsTheNewestVersion holds the invariant that lets a
// TRIAD-MEM flush write its hot entries back with a plain Set: no memtable
// holds an older version of a key than a memtable sealed before it, so a
// write-back, which goes only where no newer memtable holds the key, never
// replaces a version. A skewed load keeps hot keys hot across flushes; a
// flush is parked until the flush queue is full, so the flushes after it
// write back with later sealed memtables queued; and snapshots stay open
// throughout. Every snapshot reads what it froze.
func TestHotWriteBackIsTheNewestVersion(t *testing.T) {
	// While gate holds a channel, a flush parks before it creates its
	// table until the channel is closed.
	var gate atomic.Pointer[chan struct{}]
	fs := vfs.NewMemFS()
	fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if ch := gate.Load(); ch != nil && op.Kind == vfs.OpCreate && strings.HasSuffix(op.Name, ".clidx") {
			<-*ch
		}
		return nil
	}})
	o := triadSmall(fs)
	o.DisableAutoCompaction = true // no fold creates a table, no L0 write stop
	db := mustOpen(t, o)
	queued := func() int {
		db.mu.Lock()
		defer db.mu.Unlock()
		return len(db.mems) - 1
	}
	done := make(chan struct{})
	var full atomic.Int64 // times the queue filled behind a parked flush
	var unparked sync.WaitGroup
	defer unparked.Wait()
	defer close(done) // before Close, which waits for the flush
	park := func() {
		ch := make(chan struct{})
		gate.Store(&ch)
		unparked.Add(1)
		go func() { // the writer stalls once the queue is full
			defer unparked.Done()
			defer func() { gate.Store(nil); close(ch) }()
			for queued() <= maxImmutableMemtables {
				select {
				case <-done:
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
			full.Add(1)
		}()
	}
	const keys = 3000
	rng := rand.New(rand.NewSource(13))
	oracle := map[string]string{}
	type held struct {
		s      *Snapshot
		frozen map[string]string
	}
	var snaps []held
	for i := 0; i < 30000; i++ {
		k := fmt.Sprintf("k%05d", rng.Intn(keys))
		if rng.Intn(10) < 8 {
			k = fmt.Sprintf("k%05d", rng.Intn(40)) // hot
		}
		v := fmt.Sprintf("%s@%d", k, i)
		oracle[k] = v
		if err := clocked(db).Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			s, err := clocked(db).NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, held{s, maps.Clone(oracle)})
			if len(snaps) > 3 {
				checkReads(t, "snapshot", keys, snaps[0].s.Get, snaps[0].frozen)
				snaps[0].s.Close()
				snaps = snaps[1:]
			}
		}
		if i%300 == 0 && gate.Load() == nil {
			park()
		}
		if i%10 != 0 {
			continue
		}
		db.mu.Lock()
		mems := []*memtable.Memtable{}
		for _, r := range db.mems {
			mems = append(mems, r.mem)
		}
		for a, older := range mems {
			for _, e := range older.All() {
				for _, newer := range mems[a+1:] {
					if cur, ok := newer.Get(e.Key); ok && cur.Seq < e.Seq {
						db.mu.Unlock()
						t.Fatalf("put %d: %s at seq %d in a newer memtable, %d in an older one", i, e.Key, cur.Seq, e.Seq)
					}
				}
			}
		}
		db.mu.Unlock()
	}
	for _, h := range snaps {
		checkReads(t, "snapshot", keys, h.s.Get, h.frozen)
		h.s.Close()
	}
	if kept, n := db.Metrics().HotKeysKeptInMem, full.Load(); kept == 0 || n < 5 {
		t.Fatalf("%d hot keys written back, the flush queue full %d times: the test needs both", kept, n)
	}
	checkReads(t, "live", keys, db.Get, oracle)
}
