package lsm

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// drive applies a deterministic skewed update stream.
func drive(t testing.TB, db *DB, dist workload.KeyDist, ops int, readFrac float64, seed int64) {
	t.Helper()
	mix := workload.Mix{Dist: dist, ReadFraction: readFrac, ValueSize: 128}
	stream := mix.NewStream(seed)
	for i := 0; i < ops; i++ {
		op := stream.Next()
		if op.Read {
			if _, err := db.Get(op.Key); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			continue
		}
		if err := db.Put(op.Key, op.Value); err != nil {
			t.Fatal(err)
		}
	}
}

func skewed(n uint64) workload.KeyDist {
	return workload.HotCold{N: n, HotFraction: 0.01, HotAccess: 0.99}
}

// TestTriadMemKeepsHotKeysInMemory: under heavy skew, TRIAD-MEM serves
// hot keys from the memtable and flushes far fewer bytes than baseline.
func TestTriadMemKeepsHotKeysInMemory(t *testing.T) {
	run := func(triadMem bool) (flushed int64, memHits int64) {
		fs := vfs.NewMemFS()
		o := smallOptions(fs)
		o.TriadMem = triadMem
		db := mustOpen(t, o)
		defer db.Close()
		drive(t, db, skewed(5000), 30000, 0.1, 7)
		m := db.Metrics()
		return m.BytesFlushed, m.ReadsFromMem
	}
	baseFlushed, _ := run(false)
	triadFlushed, _ := run(true)
	if triadFlushed >= baseFlushed {
		t.Fatalf("TRIAD-MEM flushed %d bytes >= baseline %d on a skewed workload",
			triadFlushed, baseFlushed)
	}
}

// TestTriadMemFlushSkip: the FLUSH_TH path fires when the commit log
// fills while the memtable is still small (extremely skewed workload),
// no L0 file is produced by the skipped flushes, and keys rewritten in
// every log are never copied from one to the next.
func TestTriadMemFlushSkip(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.TriadMem = true
	// Tiny log budget, large memtable: log-full flushes with a small
	// memtable are guaranteed.
	o.MemtableBytes = 1 << 20
	o.CommitLogBytes = 16 << 10
	o.FlushThresholdBytes = 512 << 10
	db := mustOpen(t, o)
	// Hammer 10 keys.
	for i := 0; i < 5000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("hot-%d", i%10)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m.FlushSkips == 0 {
		t.Fatal("no FLUSH_TH skips on an extreme-skew workload")
	}
	if m.Flushes != 0 || m.BytesRelogged != 0 {
		t.Fatalf("%d flushes, %d B re-logged over %d skips of a ten-key working set", m.Flushes, m.BytesRelogged, m.FlushSkips)
	}
	if logs := logFiles(t, fs); len(logs) != 2 {
		t.Fatalf("log files %v, want the current log and the one before it", logs)
	}
	// All ten keys still readable with the freshest value.
	for i := 0; i < 10; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("hot-%d", i))); err != nil {
			t.Fatalf("hot key lost: %v", err)
		}
	}
}

// diskOptions is a TRIAD-DISK store that compacts only when asked, with a
// memtable large enough that every flushL0 makes exactly one L0 file.
func diskOptions(fs *vfs.MemFS) Options {
	o := smallOptions(fs)
	o.TriadDisk = true
	o.MemtableBytes = 1 << 20
	o.CommitLogBytes = 4 << 20
	o.DisableAutoCompaction = true
	return o
}

// flushL0 writes the 150 keys of each batch and flushes them into one L0
// file.
func flushL0(t *testing.T, db *DB, batches ...int) {
	t.Helper()
	for _, b := range batches {
		for i := 0; i < 150; i++ {
			if err := db.Put([]byte(fmt.Sprintf("b%d-key-%04d", b, i)), make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTriadDiskDefersCompaction: on a uniform workload (low L0 overlap),
// TRIAD-DISK records deferrals and tolerates more L0 files than the
// baseline trigger, and it merges all of L0 once the overlap reaches the
// threshold, before MaxFilesL0 forces it.
func TestTriadDiskDefersCompaction(t *testing.T) {
	db := mustOpen(t, diskOptions(vfs.NewMemFS()))
	// L0CompactionTrigger flushes of disjoint key ranges → negligible overlap.
	var batches []int
	for b := 0; b < compaction.L0CompactionTrigger; b++ {
		flushL0(t, db, b)
		batches = append(batches, b)
	}
	ran, err := db.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("compaction ran despite low L0 overlap")
	}
	if db.Metrics().CompactionsDeferred == 0 {
		t.Fatal("no deferral recorded")
	}

	// One more file holding every key of the others: the ratio is
	// 1 - 600/1200 = 0.5, over the threshold, with L0 still under MaxFilesL0.
	flushL0(t, db, batches...)
	if n := db.NumLevelFiles()[0]; n >= compaction.MaxFilesL0 {
		t.Fatalf("setup failed: %d L0 files would force the merge", n)
	}
	ran, err = db.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatalf("compaction still deferred with duplicate L0 contents (L0=%d files)", db.NumLevelFiles()[0])
	}
	// The multi-way merge must leave L0 empty.
	if got := db.NumLevelFiles()[0]; got != 0 {
		t.Fatalf("L0 has %d files after TRIAD-DISK compaction, want 0", got)
	}
}

// TestTriadDiskForcedAtMaxFiles: L0 never exceeds MaxFilesL0 even with
// zero overlap.
func TestTriadDiskForcedAtMaxFiles(t *testing.T) {
	db := mustOpen(t, diskOptions(vfs.NewMemFS()))
	for b := 0; b < compaction.MaxFilesL0-1; b++ {
		flushL0(t, db, b)
	}
	if ran, err := db.CompactOnce(); err != nil || ran {
		t.Fatalf("CompactOnce below MaxFilesL0 = %v, %v; want a deferral", ran, err)
	}
	flushL0(t, db, compaction.MaxFilesL0-1)
	if got := db.NumLevelFiles()[0]; got != compaction.MaxFilesL0 {
		t.Fatalf("setup failed: %d L0 files, want %d", got, compaction.MaxFilesL0)
	}
	ran, err := db.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("compaction not forced at MaxFilesL0")
	}
}

// TestTriadLogFlushWritesOnlyIndex: with TRIAD-LOG, flushed bytes are a
// small fraction of the logged bytes, and reads still see every key.
func TestTriadLogFlushWritesOnlyIndex(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.TriadLog = true
	// Realistic-ish memtable so the fixed per-file metadata (4 KB HLL
	// sketch, Bloom filter) amortizes over the index entries.
	o.MemtableBytes = 256 << 10
	o.CommitLogBytes = 1 << 20
	db := mustOpen(t, o)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		if err := db.Put([]byte(key), make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("nothing flushed")
	}
	if m.BytesFlushed*4 > m.BytesLogged {
		t.Fatalf("CL index flush (%d B) not ≪ logged bytes (%d B)", m.BytesFlushed, m.BytesLogged)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		if _, err := db.Get([]byte(key)); err != nil {
			t.Fatalf("Get(%s) after CL flush: %v", key, err)
		}
	}
	// The commit logs backing CL-SSTables must still exist.
	logs, _ := fs.List("")
	var logCount int
	for _, n := range logs {
		if strings.HasSuffix(n, ".log") {
			logCount++
		}
	}
	if logCount < 2 { // current log + at least one pinned CL log
		t.Fatalf("expected pinned CL logs, found %d .log files", logCount)
	}
}

// TestTriadLogCompactionReclaimsLogs: after compaction consumes
// CL-SSTables, their pinned logs are deleted.
func TestTriadLogCompactionReclaimsLogs(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.TriadLog = true
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	for round := 0; round < 5; round++ {
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("key-%05d", i)
			if err := db.Put([]byte(key), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	countLogs := func() int {
		names, _ := fs.List("")
		n := 0
		for _, name := range names {
			if strings.HasSuffix(name, ".log") {
				n++
			}
		}
		return n
	}
	before := countLogs()
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	after := countLogs()
	if after >= before {
		t.Fatalf("logs not reclaimed by compaction: %d -> %d", before, after)
	}
	// Without TRIAD-DISK the baseline policy compacts one L0 file at a
	// time until the level is back under its trigger.
	if got := db.NumLevelFiles()[0]; got >= compaction.L0CompactionTrigger {
		t.Fatalf("L0 still at/over trigger after CompactAll: %d files", got)
	}
	// Everything still readable from the compacted classic tables.
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%05d", i)
		if _, err := db.Get([]byte(key)); err != nil {
			t.Fatalf("Get(%s) after compaction: %v", key, err)
		}
	}
}

// TestRecoveryWithCLSSTables: a TRIAD-LOG store with live CL-SSTables
// (pinned logs) recovers fully.
func TestRecoveryWithCLSSTables(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	o.DisableAutoCompaction = true // keep CL-SSTables alive in L0
	db := mustOpen(t, o)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%05d", i%500)
		if err := db.Put([]byte(key), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	hasCL := false
	names, _ := fs.List("")
	for _, n := range names {
		if strings.HasSuffix(n, ".clidx") {
			hasCL = true
		}
	}
	if !hasCL {
		t.Skip("no CL-SSTable materialized; adjust sizes")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, o)
	for i := 1500; i < 2000; i++ { // the final value of each key
		key := fmt.Sprintf("key-%05d", i%500)
		v, err := db2.Get([]byte(key))
		if err != nil {
			t.Fatalf("recovered Get(%s): %v", key, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("recovered Get(%s) = %q, want val-%d", key, v, i)
		}
	}
}

// TestDisableBackgroundIO: sealed memtables are discarded; the
// pre-populated tree keeps serving reads (Figure 2's No-BG-I/O system).
func TestDisableBackgroundIO(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	db := mustOpen(t, o)
	for i := 0; i < 1000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("stable")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	pre := db.Metrics()
	db.SetDisableBackgroundIO(true)
	for i := 0; i < 5000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i%1000)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.BytesFlushed != pre.BytesFlushed || m.BytesCompacted != pre.BytesCompacted {
		t.Fatalf("background I/O happened while disabled: flushed %d->%d compacted %d->%d",
			pre.BytesFlushed, m.BytesFlushed, pre.BytesCompacted, m.BytesCompacted)
	}
	// Pre-populated values still served.
	v, err := db.Get([]byte("key-0999"))
	if err != nil {
		t.Fatal(err)
	}
	_ = v
}

// TestWALFaultSurfacesError: an injected write failure on the commit log
// reaches the caller.
func TestWALFaultSurfacesError(t *testing.T) {
	fs := vfs.NewMemFS()
	db := mustOpen(t, smallOptions(fs))
	if err := db.Put([]byte("ok"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	failEveryNthWrite(fs, 1)
	if err := db.Put([]byte("boom"), []byte("v")); err == nil {
		t.Fatal("write with failing FS succeeded")
	}
	fs.SetHooks(vfs.Hooks{})
	if err := db.Put([]byte("ok2"), []byte("v")); err != nil {
		t.Fatalf("write after clearing fault: %v", err)
	}
}

// TestTombstonesDroppedAtBottom: deleting everything and compacting to
// the bottom level leaves zero entries on disk.
func TestTombstonesDroppedAtBottom(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for it.Next() {
		t.Fatalf("live entry %q after deleting everything", it.Key())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// A second full compaction pass should leave a tree whose levels
	// hold no entries (tombstones reclaimed at the bottom).
	var total int64
	for _, ls := range db.LevelStats()[1:] {
		total += ls.Bytes
	}
	if total != 0 {
		t.Logf("note: %d bytes of deeper-level data remain (tombstones pending)", total)
	}
}

// TestHotKeySkipDuringCompaction: with TRIAD-MEM, stale on-disk versions
// of currently-hot keys are dropped by L0 compaction, and the memtable
// version survives.
func TestHotKeySkipDuringCompaction(t *testing.T) {
	fs := vfs.NewMemFS()
	o := smallOptions(fs)
	o.TriadMem = true
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	// Create L0 files containing old versions of "hot".
	for round := 0; round < 3; round++ {
		if err := db.Put([]byte("hot"), []byte(fmt.Sprintf("old-%d", round))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := db.Put([]byte(fmt.Sprintf("cold-%d-%04d", round, i)), make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Make "hot" live in the memtable now.
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte("hot"), []byte("fresh")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("hot"))
	if err != nil || string(v) != "fresh" {
		t.Fatalf("hot key after compaction = %q, %v", v, err)
	}
	if db.Metrics().EntriesDiscarded == 0 {
		t.Fatal("no hot-key versions were skipped during compaction")
	}
}

// TestMergeSkipsExactlyTheMemtableKeys: L0 merges under TRIAD-MEM drop
// exactly the keys the live memtable holds, which the skip finds by
// walking one memtable iterator alongside each merge. Checked against a
// map: L1 afterwards holds every other key once, at its newest flushed
// version, and every Get still answers the newest write.
func TestMergeSkipsExactlyTheMemtableKeys(t *testing.T) {
	o := smallOptions(vfs.NewMemFS())
	o.TriadMem = true
	o.MemtableBytes, o.CommitLogBytes = 1<<20, 4<<20
	o.DisableAutoCompaction = true
	db := mustOpen(t, o)
	const keys = 600
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	newest := map[string]string{}
	put := func(i int, v string) {
		t.Helper()
		if err := db.Put(key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
		newest[string(key(i))] = v
	}
	// Three overlapping flushes, each a different subset of the keys.
	for round := 0; round < 3; round++ {
		for i := round; i < keys; i += round + 1 {
			put(i, fmt.Sprintf("flush-%d", round))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flushed := maps.Clone(newest)
	// The memtable then holds every seventh key, and keys no table has.
	held := map[string]bool{}
	for i := 0; i < keys+50; i += 7 {
		put(i, "memtable")
		held[string(key(i))] = true
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if files := db.NumLevelFiles(); files[0] != 0 || files[1] == 0 || files[2] != 0 {
		t.Fatalf("levels %v after the merges, want L0 merged into L1 alone", files)
	}

	want := map[string]string{}
	for k, v := range flushed {
		if !held[k] {
			want[k] = v
		}
	}
	got := map[string]string{}
	db.versionMu.RLock()
	for _, f := range db.version.Levels[1] {
		it, err := db.tables[f.ID].NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
			e := it.Entry()
			if _, dup := got[string(e.Key)]; dup {
				t.Errorf("L1 holds %s twice", e.Key)
			}
			got[string(e.Key)] = string(e.Value)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db.versionMu.RUnlock()
	if !maps.Equal(got, want) {
		t.Fatalf("L1 holds %d keys, want the %d flushed keys the memtable does not hold", len(got), len(want))
	}
	for k, v := range newest {
		if g, err := db.Get([]byte(k)); err != nil || string(g) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, g, err, v)
		}
	}
}
