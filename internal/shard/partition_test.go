package shard

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestFNVRanges: which shards a scan under FNV routing touches — none
// for empty or inverted bounds (no snapshot, no barrier), every shard
// otherwise, through one lsm.Iterator on one store snapshot that dies
// with it.
func TestFNVRanges(t *testing.T) {
	db := openMem(t, 4)
	for _, b := range [][2]string{{"x", "x"}, {"b", "a"}} {
		it, err := db.NewIterator([]byte(b[0]), []byte(b[1]))
		if err != nil {
			t.Fatal(err)
		}
		if db.OpenSnapshots() != 0 || it.Next() {
			t.Fatalf("[%q, %q): %d snapshots pinned, or an entry yielded", b[0], b[1], db.OpenSnapshots())
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator([]byte("a"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*lsm.Iterator); !ok || db.OpenSnapshots() != 1 {
		t.Fatalf("bounded hash scan = %T over %d snapshots, want an *lsm.Iterator over 1", it, db.OpenSnapshots())
	}
	for i, s := range db.shards {
		if n := s.OpenSnapshots(); n != 1 {
			t.Fatalf("shard %d: %d snapshots pinned during the scan, want 1", i, n)
		}
	}
	if err := it.Close(); err != nil || db.OpenSnapshots() != 0 {
		t.Fatalf("Close = %v with %d snapshots left", err, db.OpenSnapshots())
	}
}

// TestSingleShardScanFastPath: a one-shard store scans through its
// shard's own snapshot, with no store snapshot, and a multi-shard store
// through one store snapshot; both return an *lsm.Iterator.
func TestSingleShardScanFastPath(t *testing.T) {
	const keys = 4000
	one := openMem(t, 1)
	for i := 0; i < keys; i++ {
		if err := one.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][2][]byte{{nil, nil}, {[]byte("key-00100"), []byte("key-00200")}} {
		it, err := one.NewIterator(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := it.(*lsm.Iterator); !ok || one.OpenSnapshots() != 0 || one.shards[0].OpenSnapshots() != 1 {
			t.Fatalf("1-shard scan returned %T with %d store snapshots and %d shard snapshots, want *lsm.Iterator on 0 and 1",
				it, one.OpenSnapshots(), one.shards[0].OpenSnapshots())
		}
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: keys, false: 100}[b[0] == nil]; n != want {
			t.Fatalf("fast-path scan [%q, %q) saw %d keys, want %d", b[0], b[1], n, want)
		}
	}
	// The snapshot's scan takes the same path.
	s, err := one.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	sit, err := s.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sit.(*lsm.Iterator); !ok {
		t.Fatalf("1-shard snapshot scan returned %T, want *lsm.Iterator", sit)
	}
	sit.Close()
	s.Close()

	// A multi-shard store's scan is one iterator on one store snapshot.
	hdb := openMem(t, 4)
	if err := hdb.Put([]byte("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hit, err := hdb.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hit.(*lsm.Iterator); !ok || hdb.OpenSnapshots() != 1 {
		t.Fatalf("hash scan returned %T with %d snapshots, want *lsm.Iterator on 1", hit, hdb.OpenSnapshots())
	}
	if err := hit.Close(); err != nil || hdb.OpenSnapshots() != 0 {
		t.Fatalf("Close = %v with %d snapshots left", err, hdb.OpenSnapshots())
	}
}

// TestScanFailedSourceOpen: when one shard's source fails to open — here
// a CL-SSTable's commit-log read — NewIterator returns the error and
// leaves no snapshot pinned on any shard and no file handle open, and the
// store still scans once the fault clears.
func TestScanFailedSourceOpen(t *testing.T) {
	const shards, keys = 4, 2000
	var open atomic.Int64
	var failing atomic.Bool
	engine := smallEngine()
	engine.DisableAutoCompaction = true
	db, err := Open(Options{Shards: shards, Engine: engine, NewFS: func(i int) (vfs.FS, error) {
		mem := vfs.NewMemFS()
		mem.SetHooks(vfs.Hooks{
			Before: func(op vfs.Op) error {
				if i == 2 && failing.Load() && op.Kind == vfs.OpReadAt && strings.HasSuffix(op.Name, ".log") {
					return vfs.ErrInjected
				}
				return nil
			},
			After: func(op vfs.Op) {
				switch op.Kind {
				case vfs.OpCreate, vfs.OpOpen:
					open.Add(1)
				case vfs.OpClose:
					open.Add(-1)
				}
			},
		})
		return mem, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// fail opens a scan with the fault armed; pins is how many snapshots
	// the store and each shard held before.
	fail := func(what string, scan func(lo, hi []byte) (Iter, error), pins int) {
		t.Helper()
		failing.Store(true)
		defer failing.Store(false)
		handles := open.Load()
		it, err := scan(nil, nil)
		if !errors.Is(err, vfs.ErrInjected) || it != nil {
			t.Fatalf("%s scan over a failing log read = %v, %v; want the injected fault", what, it, err)
		}
		if n := db.OpenSnapshots(); n != pins {
			t.Fatalf("%s scan failed with %d store snapshots open, want %d", what, n, pins)
		}
		for i, s := range db.shards {
			if n := s.OpenSnapshots(); n != pins {
				t.Fatalf("%s scan failed with %d snapshots pinned on shard %d, want %d", what, n, i, pins)
			}
		}
		if n := open.Load(); n != handles {
			t.Fatalf("%s scan failed with %d file handles left open", what, n-handles)
		}
	}
	fail("store", db.NewIterator, 0)
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fail("snapshot", snap.NewIterator, 1)
	failing.Store(false)
	it, err := snap.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Close(); err != nil || n != keys {
		t.Fatalf("scan after the fault cleared: %d keys, %v; want %d", n, err, keys)
	}
	snap.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := open.Load(); n != 0 {
		t.Fatalf("%d file handles left open after Close", n)
	}
}

// TestScanDifferential drives a random workload into a hash-partitioned
// store of 1 and of 4 shards and into a map oracle, then compares
// randomized bounded scans — including bounds on existing keys, past the
// keyspace and inverted bounds — entry for entry. A snapshot taken after
// the first write phase is held across a second phase, a Flush and a
// CompactAll, and its scans must still equal the first phase's oracle.
func TestScanDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { scanDifferential(t, shards) })
	}
}

func scanDifferential(t *testing.T, shards int) {
	const keyspace = 3000
	hdb := openMem(t, shards)
	defer hdb.Close()

	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	write := func(n int) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%05d", rng.Intn(keyspace))
			if rng.Intn(10) == 0 {
				delete(oracle, k)
				if err := hdb.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			v := fmt.Sprintf("v%d", rng.Int63())
			oracle[k] = v
			if err := hdb.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(15_000)
	if err := hdb.Flush(); err != nil {
		t.Fatal(err)
	}

	sorted := make([]string, 0, len(oracle))
	for k := range oracle {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	first := maps.Clone(oracle)

	expect := func(lo, hi []byte) [][2]string {
		var out [][2]string
		for _, k := range sorted {
			if lo != nil && k < string(lo) {
				continue
			}
			if hi != nil && k >= string(hi) {
				break
			}
			out = append(out, [2]string{k, first[k]})
		}
		return out
	}
	collect := func(it Iter, err error) [][2]string {
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var out [][2]string
		for it.Next() {
			out = append(out, [2]string{string(it.Key()), string(it.Value())})
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	bound := func() []byte {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1: // a key the store holds
			return []byte(sorted[rng.Intn(len(sorted))])
		default:
			return []byte(fmt.Sprintf("key-%05d", rng.Intn(keyspace+10)))
		}
	}
	check := func(what string, scan func(lo, hi []byte) (Iter, error)) {
		t.Helper()
		for trial := 0; trial < 60; trial++ {
			lo, hi := bound(), bound()
			want := expect(lo, hi)
			if got := collect(scan(lo, hi)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s trial %d [%q,%q): scan diverged from oracle\n got %d entries\nwant %d entries",
					what, trial, lo, hi, len(got), len(want))
			}
		}
	}
	check("store", hdb.NewIterator)

	snap, err := hdb.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	check("snapshot", snap.NewIterator)
	write(15_000)
	check("snapshot after writes", snap.NewIterator)
	if err := hdb.Flush(); err != nil {
		t.Fatal(err)
	}
	check("snapshot after Flush", snap.NewIterator)
	if err := hdb.CompactAll(); err != nil {
		t.Fatal(err)
	}
	check("snapshot after CompactAll", snap.NewIterator)
}

// TestReopenMismatchFailsFast is the metadata regression suite: a store
// created with 4 shards writes the STORE record older builds write,
// refuses to open with 2 or 8 shards or with shard directories swapped,
// and reopens cleanly with the original count.
func TestReopenMismatchFailsFast(t *testing.T) {
	fses := make([]vfs.FS, 8)
	for i := range fses {
		fses[i] = vfs.NewMemFS()
	}
	newFS := func(i int) (vfs.FS, error) { return fses[i], nil }

	db, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"apple", "banana", "cherry", "date"} {
		if err := db.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Byte for byte the record of a hash store from before range
	// partitioning was removed, so stores open in both directions.
	if got := readRecord(t, fses[1]); got != "TRIADSTORE v1 80f929ff {\"shards\":4,\"shard\":1,\"partitioner\":\"fnv\"}\n" {
		t.Fatalf("STORE record %q", got)
	}

	// Fewer shards than creation.
	if _, err := Open(Options{Shards: 2, Engine: smallEngine(), NewFS: newFS}); err == nil ||
		!strings.Contains(err.Error(), "created with 4 shards") {
		t.Fatalf("reopen with 2 shards: %v", err)
	}
	// More shards than creation.
	if _, err := Open(Options{Shards: 8, Engine: smallEngine(), NewFS: newFS}); err == nil ||
		!strings.Contains(err.Error(), "created with 4 shards") {
		t.Fatalf("reopen with 8 shards: %v", err)
	}
	// Shuffled shard directories.
	swapped := func(i int) (vfs.FS, error) { return fses[[4]int{1, 0, 2, 3}[i]], nil }
	if _, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: swapped}); err == nil ||
		!strings.Contains(err.Error(), "shuffled") {
		t.Fatalf("shuffled reopen: %v", err)
	}

	// The original count reopens; reads route right.
	db, err = Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"apple", "banana", "cherry", "date"} {
		if v, err := db.Get([]byte(k)); err != nil || string(v) != k {
			t.Fatalf("after reopen Get(%s) = %q, %v", k, v, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A corrupt record is an error, not a fallback.
	f, err := fses[2].Create(storeMetaName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("TRIADSTORE v1 00000000 {}\n")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS}); err == nil {
		t.Fatal("corrupt STORE record accepted")
	}
	// An unknown future version is an error too.
	f, _ = fses[2].Create(storeMetaName)
	f.Write([]byte("TRIADSTORE v9 00000000 {}\n"))
	f.Close()
	if _, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS}); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}

	// A store predating the metadata (no STORE anywhere) opens and gets
	// records written.
	for i := 0; i < 4; i++ {
		if err := fses[i].Remove(storeMetaName); err != nil {
			t.Fatal(err)
		}
	}
	db, err = Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS})
	if err != nil {
		t.Fatalf("legacy store reopen: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !fses[i].Exists(storeMetaName) {
			t.Fatalf("shard %d missing refreshed STORE record", i)
		}
	}
}

// readRecord returns fs's STORE record as stored.
func readRecord(t *testing.T, fs vfs.FS) string {
	t.Helper()
	f, err := fs.Open(storeMetaName)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// writeRecord stores payload as fs's STORE record, checksummed the way
// every build writes it.
func writeRecord(t *testing.T, fs vfs.FS, payload string) {
	t.Helper()
	f, err := fs.Create(storeMetaName)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "TRIADSTORE v1 %08x %s\n", crc32.Checksum([]byte(payload), storeCRC), payload); err != nil {
		t.Fatal(err)
	}
}

// TestCustomPartitionerMetadata: a store whose STORE records name a
// partitioner other than FNV — a custom one, or the range partitioner
// older builds offered — is refused with an error naming it, before any
// shard opens, rather than having its keys misrouted.
func TestCustomPartitionerMetadata(t *testing.T) {
	for _, name := range []string{"mod-last-byte", "range(67,6e)"} {
		fses := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS()}
		for i, fs := range fses {
			writeRecord(t, fs, fmt.Sprintf(`{"shards":3,"shard":%d,"partitioner":%q}`, i, name))
		}
		_, err := Open(Options{Shards: 3, Engine: smallEngine(), NewFS: func(i int) (vfs.FS, error) { return fses[i], nil }})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("partitioner %q", name)) {
			t.Fatalf("open of a %q store: %v", name, err)
		}
		if fses[0].Exists("MANIFEST") {
			t.Fatalf("a shard of the refused %q store was opened", name)
		}
	}
}

// TestRangeShardCountMismatch: a range-partitioned store written by an
// older build (its record carries the split keys too) is refused for its
// partitioner even when the shard count is wrong as well — the count
// would not be the reason it cannot open.
func TestRangeShardCountMismatch(t *testing.T) {
	fses := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS()}
	for i, fs := range fses {
		writeRecord(t, fs, fmt.Sprintf(`{"shards":2,"shard":%d,"partitioner":"range(6d)","splits":["6d"]}`, i))
	}
	for _, n := range []int{1, 2} {
		_, err := Open(Options{Shards: n, Engine: smallEngine(), NewFS: func(i int) (vfs.FS, error) { return fses[i], nil }})
		if err == nil || !strings.Contains(err.Error(), `partitioner "range(6d)"`) {
			t.Fatalf("open of the range store with %d shards: %v", n, err)
		}
	}
}

// TestShardStats: the per-shard balance surface reports each shard's
// writes, and a keyset that hashes to one shard shows there alone.
func TestShardStats(t *testing.T) {
	db := openMem(t, 4)
	// 500 keys that all hash to shard 0: it takes everything.
	keys := keysOn(db, 0, 500, "key")
	for _, k := range keys {
		if err := db.Put(k, bytes.Repeat([]byte("x"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Get(keys[1]); err != nil {
		t.Fatal(err)
	}
	stats := db.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats len = %d", len(stats))
	}
	if stats[0].Writes != 500 || stats[0].WriteBytes == 0 || stats[0].Reads != 1 {
		t.Fatalf("shard 0 stats = %+v", stats[0])
	}
	// Only shard 0 has anything in a commit log.
	if stats[0].RetainedLogBytes == 0 || stats[1].RetainedLogBytes != 0 {
		t.Fatalf("retained log bytes %d (shard 0) and %d (shard 1)", stats[0].RetainedLogBytes, stats[1].RetainedLogBytes)
	}
	for i := 1; i < 4; i++ {
		if stats[i].Writes != 0 {
			t.Fatalf("shard %d absorbed %d writes, want 0", i, stats[i].Writes)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	stats = db.ShardStats()
	if stats[0].Files == 0 || stats[0].DiskBytes == 0 || stats[0].WA == 0 {
		t.Fatalf("shard 0 post-flush stats = %+v", stats[0])
	}
	// The I/O bill follows the writes: all of it on shard 0.
	if io := stats[0].IO; io[obs.SrcUser] != stats[0].WriteBytes || io[obs.SrcWAL] == 0 || io[obs.SrcFlush] == 0 {
		t.Fatalf("shard 0 I/O attribution %v for %d user bytes", io, stats[0].WriteBytes)
	}
	if stats[1].IO != (obs.LedgerSnapshot{}) {
		t.Fatalf("idle shard 1 billed %v", stats[1].IO)
	}
	if db.IOBySource() != stats[0].IO {
		t.Fatalf("store-wide I/O %v != shard 0's %v", db.IOBySource(), stats[0].IO)
	}
	if !strings.Contains(db.Stats(), "per-shard balance") || !strings.Contains(db.Stats(), " logs=0 B") {
		t.Fatalf("Stats missing balance table:\n%s", db.Stats())
	}
	if _, err := db.Get([]byte("missing")); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("Get(missing) = %v", err)
	}
}
