package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestParsePartitioner: the configuration spelling every front door
// shares — names, the implied range, adoption, and the two misuses.
func TestParsePartitioner(t *testing.T) {
	splits := [][]byte{[]byte("g"), []byte("n")}
	for _, tc := range []struct {
		name   string
		splits [][]byte
		want   string // Partitioner.Name(); "" for nil (adopt the stored one)
		err    string
	}{
		{"", nil, "", ""},
		{"", splits, "range(67,6e)", ""},
		{"hash", nil, "fnv", ""},
		{"hash", splits, "fnv", ""},
		{"range", splits, "range(67,6e)", ""},
		{"range", nil, "", "requires split keys"},
		{"mod17", nil, "", "unknown partitioner"},
	} {
		p, err := ParsePartitioner(tc.name, tc.splits)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParsePartitioner(%q, %q) error = %v, want %q", tc.name, tc.splits, err, tc.err)
			}
			continue
		}
		got := ""
		if p != nil {
			got = p.Name()
		}
		if err != nil || got != tc.want {
			t.Errorf("ParsePartitioner(%q, %q) = %q, %v; want %q", tc.name, tc.splits, got, err, tc.want)
		}
	}
}

// TestNewRangeValidation: splits must be non-empty and strictly
// ascending.
func TestNewRangeValidation(t *testing.T) {
	if _, err := NewRange(); err == nil {
		t.Fatal("NewRange() with no splits succeeded")
	}
	if _, err := NewRange([]byte("a"), []byte("")); err == nil {
		t.Fatal("empty split accepted")
	}
	if _, err := NewRange([]byte("b"), []byte("a")); err == nil {
		t.Fatal("descending splits accepted")
	}
	if _, err := NewRange([]byte("a"), []byte("a")); err == nil {
		t.Fatal("duplicate splits accepted")
	}
	r, err := NewRange([]byte("g"), []byte("n"), []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", r.NumShards())
	}
}

// TestRangePartitionBoundaries: keys route by binary search over the
// splits, with a split key itself belonging to the shard it starts.
func TestRangePartitionBoundaries(t *testing.T) {
	r, err := NewRange([]byte("g"), []byte("n"), []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  string
		want int
	}{
		{"", 0}, {"a", 0}, {"fzzz", 0},
		{"g", 1}, {"ga", 1}, {"mzzz", 1},
		{"n", 2}, {"szzz", 2},
		{"t", 3}, {"zzzz", 3},
	}
	for _, c := range cases {
		if got := r.Partition([]byte(c.key), 4); got != c.want {
			t.Fatalf("Partition(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	// Stability: same key, same shard, always.
	for _, c := range cases {
		if r.Partition([]byte(c.key), 4) != r.Partition([]byte(c.key), 4) {
			t.Fatalf("unstable partition for %q", c.key)
		}
	}
}

// TestRangeRangesQuery covers the ownership query's edges: unbounded
// sides, bounds exactly on split keys, and empty ranges.
func TestRangeRangesQuery(t *testing.T) {
	r, err := NewRange([]byte("g"), []byte("n"), []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		start, limit string
		want         []int
	}{
		{"", "", []int{0, 1, 2, 3}},     // unbounded
		{"a", "f", []int{0}},            // inside shard 0
		{"a", "g", []int{0}},            // limit exactly on a split: shard 1 excluded
		{"g", "n", []int{1}},            // one whole slice
		{"a", "ga", []int{0, 1}},        // straddles the g split
		{"h", "", []int{1, 2, 3}},       // unbounded right
		{"", "n", []int{0, 1}},          // unbounded left, limit on split
		{"t", "", []int{3}},             // last slice
		{"tzz", "tzzz", []int{3}},       // inside last slice
		{"x", "x", nil},                 // empty range
		{"z", "a", nil},                 // inverted range
		{"g", "g", nil},                 // empty range on a split
		{"zz", "zzz", []int{3}},         // above every split
		{"a", "zzz", []int{0, 1, 2, 3}}, // everything
	}
	for _, c := range cases {
		var start, limit []byte
		if c.start != "" {
			start = []byte(c.start)
		}
		if c.limit != "" {
			limit = []byte(c.limit)
		}
		got, ordered := r.Ranges(start, limit, 4)
		if !ordered {
			t.Fatalf("Ranges(%q, %q) not ordered", c.start, c.limit)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("Ranges(%q, %q) = %v, want %v", c.start, c.limit, got, c.want)
		}
	}
}

// TestRangeNameRoundTrip: Name() encodes the boundaries; parseRangeName
// reconstructs an identically routing partitioner.
func TestRangeNameRoundTrip(t *testing.T) {
	// Splits with bytes hostile to the name encoding: NULs, commas, a
	// closing paren.
	r, err := NewRange([]byte{0x00, 0x2c}, []byte("g"), []byte("t,)x"))
	if err != nil {
		t.Fatal(err)
	}
	name := r.Name()
	if !strings.HasPrefix(name, "range(") {
		t.Fatalf("Name = %q", name)
	}
	r2, err := parseRangeName(name)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Name() != name {
		t.Fatalf("round trip changed name: %q -> %q", name, r2.Name())
	}
	for _, k := range []string{"", "a", "g", "gz", "t,)x", "zz", "\x00,"} {
		if r.Partition([]byte(k), 4) != r2.Partition([]byte(k), 4) {
			t.Fatalf("round-tripped partitioner routes %q differently", k)
		}
	}
	if _, err := parseRangeName("fnv"); err == nil {
		t.Fatal("parseRangeName accepted a non-range name")
	}
	if _, err := parseRangeName("range(zz)"); err == nil {
		t.Fatal("parseRangeName accepted invalid hex")
	}
}

// TestFNVRanges: a hashed scan may touch every shard and is unordered
// except in the trivial single-shard store.
func TestFNVRanges(t *testing.T) {
	p := FNV{}
	shards, ordered := p.Ranges([]byte("a"), []byte("b"), 4)
	if len(shards) != 4 || ordered {
		t.Fatalf("FNV.Ranges = %v ordered=%v, want all 4 unordered", shards, ordered)
	}
	if _, ordered := p.Ranges(nil, nil, 1); !ordered {
		t.Fatal("single-shard FNV must be ordered")
	}
	if shards, _ := p.Ranges([]byte("b"), []byte("a"), 4); shards != nil {
		t.Fatalf("inverted range = %v, want nil", shards)
	}
}

// openRange opens an n-shard range-partitioned store over the "key-%05d"
// keyspace with even splits.
func openRange(t *testing.T, n int, keys int) *DB {
	t.Helper()
	splits := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		splits = append(splits, []byte(fmt.Sprintf("key-%05d", keys*i/n)))
	}
	r, err := NewRange(splits...)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Shards: n, Engine: smallEngine(), NewFS: MemFS(), Partitioner: r})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSingleShardScanFastPath is the acceptance check for the scan
// refactor: a range-partitioned scan whose bounds fall inside one
// shard's slice returns that shard's iterator verbatim — the concrete
// *lsm.Iterator, not a merge or concat wrapper — while the hash store
// keeps the merged path and cross-slice scans concatenate.
func TestSingleShardScanFastPath(t *testing.T) {
	const keys = 4000
	db := openRange(t, 4, keys)
	defer db.Close()
	for i := 0; i < keys; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Bounds inside shard 0's slice: the raw lsm iterator, no heap.
	it, err := db.NewIterator([]byte("key-00100"), []byte("key-00200"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*lsm.Iterator); !ok {
		t.Fatalf("single-slice scan returned %T, want *lsm.Iterator", it)
	}
	n := 0
	for it.Next() {
		n++
	}
	if n != 100 {
		t.Fatalf("fast-path scan saw %d keys, want 100", n)
	}

	// Bounds spanning two slices: concatenation, still no heap.
	it, err = db.NewIterator([]byte("key-00900"), []byte("key-01100"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*Concat); !ok {
		t.Fatalf("cross-slice scan returned %T, want *Concat", it)
	}
	var prev []byte
	n = 0
	for it.Next() {
		if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
			t.Fatalf("concat out of order: %q after %q", it.Key(), prev)
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if n != 200 {
		t.Fatalf("concat scan saw %d keys, want 200", n)
	}

	// Unbounded scan: all four slices, concatenated.
	it, err = db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*Concat); !ok {
		t.Fatalf("full range scan returned %T, want *Concat", it)
	}
	n = 0
	for it.Next() {
		n++
	}
	if n != keys {
		t.Fatalf("full scan saw %d keys, want %d", n, keys)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	// Empty range: no iterator machinery at all.
	it, err = db.NewIterator([]byte("key-00500"), []byte("key-00500"))
	if err != nil {
		t.Fatal(err)
	}
	if it.Next() {
		t.Fatal("empty range yielded an entry")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	// The hash store keeps the merged path for multi-shard stores...
	hdb := openMem(t, 4)
	defer hdb.Close()
	if err := hdb.Put([]byte("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hit, err := hdb.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hit.Close()
	if _, ok := hit.(*Merged); !ok {
		t.Fatalf("hash scan returned %T, want *Merged", hit)
	}
	// ...but a single-shard store is trivially ordered and skips it.
	one := openMem(t, 1)
	defer one.Close()
	oit, err := one.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oit.Close()
	if _, ok := oit.(*lsm.Iterator); !ok {
		t.Fatalf("1-shard scan returned %T, want *lsm.Iterator", oit)
	}
}

// TestScanDifferential drives identical random workloads into a
// hash-partitioned store, a range-partitioned store (with splits that
// leave shards empty), and a map oracle, then compares randomized
// bounded scans — including bounds exactly on split keys and inverted
// bounds — entry for entry across all three.
func TestScanDifferential(t *testing.T) {
	const keyspace = 3000
	hdb := openMem(t, 4)
	defer hdb.Close()
	// Splits at 1/3 and 2/3 plus one above every real key, so the last
	// shard stays empty and the middle boundary keys get exercised.
	r, err := NewRange(
		[]byte(fmt.Sprintf("key-%05d", keyspace/3)),
		[]byte(fmt.Sprintf("key-%05d", 2*keyspace/3)),
		[]byte("key-99999"),
	)
	if err != nil {
		t.Fatal(err)
	}
	rdb, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: MemFS(), Partitioner: r})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()

	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 15_000; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(keyspace))
		if rng.Intn(10) == 0 {
			delete(oracle, k)
			if err := hdb.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			if err := rdb.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		v := fmt.Sprintf("v%d", i)
		oracle[k] = v
		if err := hdb.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := rdb.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := hdb.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rdb.Flush(); err != nil {
		t.Fatal(err)
	}

	sorted := make([]string, 0, len(oracle))
	for k := range oracle {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	expect := func(lo, hi []byte) [][2]string {
		var out [][2]string
		for _, k := range sorted {
			if lo != nil && k < string(lo) {
				continue
			}
			if hi != nil && k >= string(hi) {
				break
			}
			out = append(out, [2]string{k, oracle[k]})
		}
		return out
	}
	collect := func(db *DB, lo, hi []byte) [][2]string {
		it, err := db.NewIterator(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var out [][2]string
		for it.Next() {
			out = append(out, [2]string{string(it.Key()), string(it.Value())})
		}
		return out
	}

	bound := func() []byte {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1: // exactly a split key
			return []byte(fmt.Sprintf("key-%05d", []int{keyspace / 3, 2 * keyspace / 3}[rng.Intn(2)]))
		default:
			return []byte(fmt.Sprintf("key-%05d", rng.Intn(keyspace+10)))
		}
	}
	for trial := 0; trial < 60; trial++ {
		lo, hi := bound(), bound()
		want := expect(lo, hi)
		if got := collect(hdb, lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d [%q,%q): hash scan diverged from oracle\n got %d entries\nwant %d entries",
				trial, lo, hi, len(got), len(want))
		}
		if got := collect(rdb, lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d [%q,%q): range scan diverged from oracle\n got %d entries\nwant %d entries",
				trial, lo, hi, len(got), len(want))
		}
	}
}

// TestReopenMismatchFailsFast is the metadata regression suite: a store
// created with 4 shards refuses to open with 2 or 8, with a changed
// partitioner, or with shard directories swapped — and reopens cleanly
// with the original configuration or with none (stored adoption).
func TestReopenMismatchFailsFast(t *testing.T) {
	fses := make([]vfs.FS, 8)
	for i := range fses {
		fses[i] = vfs.NewMemFS()
	}
	newFS := func(i int) (vfs.FS, error) { return fses[i], nil }
	r4, err := NewRange([]byte("b"), []byte("c"), []byte("d"))
	if err != nil {
		t.Fatal(err)
	}

	db, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS, Partitioner: r4})
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
	// Different partitioner at the right count.
	if _, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS, Partitioner: FNV{}}); err == nil ||
		!strings.Contains(err.Error(), "partitioner") {
		t.Fatalf("reopen with fnv: %v", err)
	}
	// Different splits at the right count.
	rBad, err := NewRange([]byte("x"), []byte("y"), []byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS, Partitioner: rBad}); err == nil {
		t.Fatal("reopen with different splits succeeded")
	}
	// Shuffled shard directories.
	swapped := func(i int) (vfs.FS, error) { return fses[[4]int{1, 0, 2, 3}[i]], nil }
	if _, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: swapped}); err == nil ||
		!strings.Contains(err.Error(), "shuffled") {
		t.Fatalf("shuffled reopen: %v", err)
	}

	// nil partitioner adopts the stored range layout; reads route right.
	db, err = Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS})
	if err != nil {
		t.Fatal(err)
	}
	if db.Partitioner().Name() != r4.Name() {
		t.Fatalf("adopted %q, want %q", db.Partitioner().Name(), r4.Name())
	}
	for _, k := range []string{"apple", "banana", "cherry", "date"} {
		if v, err := db.Get([]byte(k)); err != nil || string(v) != k {
			t.Fatalf("after adoption Get(%s) = %q, %v", k, v, err)
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
	db, err = Open(Options{Shards: 4, Engine: smallEngine(), NewFS: newFS, Partitioner: r4})
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

// TestCustomPartitionerMetadata: a store created with a custom
// partitioner reopens with the same implementation, but cannot be
// reconstructed from metadata alone.
func TestCustomPartitionerMetadata(t *testing.T) {
	fses := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS()}
	newFS := func(i int) (vfs.FS, error) { return fses[i], nil }
	opts := Options{Shards: 3, Engine: smallEngine(), NewFS: newFS, Partitioner: modPartitioner{}}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Same implementation: fine.
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// nil cannot reconstruct a custom partitioner.
	if _, err := Open(Options{Shards: 3, Engine: smallEngine(), NewFS: newFS}); err == nil ||
		!strings.Contains(err.Error(), "custom partitioner") {
		t.Fatalf("custom adoption: %v", err)
	}
}

// TestRangeShardCountMismatch: a Range whose implied count differs from
// Options.Shards is rejected up front.
func TestRangeShardCountMismatch(t *testing.T) {
	r, err := NewRange([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Shards: 4, Engine: smallEngine(), NewFS: MemFS(), Partitioner: r}); err == nil ||
		!strings.Contains(err.Error(), "implies 2 shards") {
		t.Fatalf("count mismatch: %v", err)
	}
}

// TestShardStats: the per-shard balance surface reports each shard's
// writes, and a range store shows the skew hash hides.
func TestShardStats(t *testing.T) {
	db := openRange(t, 4, 4000)
	defer db.Close()
	// All writes land below the first split: shard 0 takes everything.
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("x"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Get([]byte("key-00001")); err != nil {
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
