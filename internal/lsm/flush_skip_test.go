package lsm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/base"
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
// log is rewritten many times per flush, every log-full flush that does
// happen carries at least FLUSH_TH of cold data, the journal says so for
// each decision, and nothing is lost across a Close/reopen in the middle.
func TestFlushDecidedByColdPart(t *testing.T) {
	fs := vfs.NewMemFS()
	events := obs.NewJournal(4096)
	o := triadSmall(fs) // memtable 16 KiB <= half of the 64 KiB log, FLUSH_TH 8 KiB
	o.Events = events
	oracle := map[string]string{}
	var skips, flushes int64
	put := func(db *DB, k string, i int) {
		v := fmt.Sprintf("%0100d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	for half := 0; half < 2; half++ {
		db := mustOpen(t, o)
		checkAgainst(t, db, oracle) // what the first half wrote, recovered
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
		t.Fatalf("%d skips, %d flushes: want the log rewritten more often than the memtable is flushed", skips, flushes)
	}

	var skipEvents, logFullFlushes int64
	for _, e := range events.Events(0) {
		if e.Kind != obs.EventFlush {
			continue
		}
		var cold, size, th int64
		switch {
		case e.Level == -1:
			if _, err := fmt.Sscanf(e.Detail, "skipped: cold %d of %d B under FLUSH_TH %d,", &cold, &size, &th); err != nil {
				t.Fatalf("skip event %q: %v", e.Detail, err)
			}
			if cold >= th || th != o.FlushThresholdBytes || size != e.In {
				t.Fatalf("skip event does not explain itself: %s", e)
			}
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
	if events.Dropped() != 0 || skipEvents != skips || logFullFlushes == 0 {
		t.Fatalf("journal has %d skip events (%d dropped) for %d skips, %d log-full flushes", skipEvents, events.Dropped(), skips, logFullFlushes)
	}
}

// TestSkipNeedsRoomInLog: with a commit log no larger than the memtable, a
// skip whose rewrite would fill most of the new log is not taken — it
// would come round again every few puts, re-logging the memtable each
// time — while a memtable that fits in half the log still skips.
func TestSkipNeedsRoomInLog(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keys      int // distinct keys, written round-robin
		wantSkips bool
	}{
		{"new keys outgrow half the log", 1 << 30, false},
		{"hot set within half the log", 60, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := smallOptions(vfs.NewMemFS())
			o.TriadMem = true
			o.MemtableBytes = 64 << 10
			o.CommitLogBytes = 32 << 10
			o.FlushThresholdBytes = 64 << 10
			db := mustOpen(t, o)
			defer db.Close()
			for i := 0; i < 5000; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%07d", i%tc.keys)), make([]byte, 200)); err != nil {
					t.Fatal(err)
				}
			}
			m := db.Metrics()
			if ratio := float64(m.BytesLogged) / float64(m.UserBytes); ratio >= 2.5 {
				t.Fatalf("logged %d B for %d user bytes (%.2fx) over %d skips", m.BytesLogged, m.UserBytes, ratio, m.FlushSkips)
			}
			if (m.FlushSkips > 0) != tc.wantSkips {
				t.Fatalf("%d skips, want skips: %v", m.FlushSkips, tc.wantSkips)
			}
		})
	}
}

// TestFailedSkipLeavesNoOrphanLog: a skip whose rewrite fails must not
// leave the new log behind, and recovery must not let any log — such an
// orphan on a filesystem that tears writes, planted here by hand — put an
// older record over a newer one.
func TestFailedSkipLeavesNoOrphanLog(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.TriadMem = true
	o.MemtableBytes = 64 << 10
	o.CommitLogBytes = 8 << 10 // ten 100-byte keys: a skip every ~60 puts
	o.FlushThresholdBytes = 32 << 10
	db := mustOpen(t, o)
	oracle := map[string]string{}
	fs.FailEveryNthWrite(7)
	var failed int
	for i := 0; i < 3000; i++ {
		k, v := fmt.Sprintf("hot-%d", i%10), fmt.Sprintf("%0100d", i)
		// A put that reports an error may or may not have been applied;
		// the retry that succeeds settles the key.
		for db.Put([]byte(k), []byte(v)) != nil {
			failed++
		}
		oracle[k] = v
	}
	fs.FailEveryNthWrite(0)
	m := db.Metrics()
	if failed == 0 || m.FlushSkips == 0 || m.Flushes != 0 {
		t.Fatalf("%d failed puts, %d skips, %d flushes: the test needs failures and skips only", failed, m.FlushSkips, m.Flushes)
	}
	if logs := logFiles(t, fs); len(logs) != 1 {
		t.Fatalf("log files after failed skips: %v, want only the live log", logs)
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
	if err := db2.Apply(b); err != nil {
		t.Fatal(err)
	}
	oracle["twice"] = "second"
	db3 := mustOpen(t, o)
	defer db3.Close()
	checkAgainst(t, db3, oracle)
	if err := errors.Join(db.Close(), db2.Close()); err != nil { // the abandoned handles' pools
		t.Fatal(err)
	}
}
