package triad

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// TestReopenShardCountMismatch is the fail-fast regression test for the
// persisted store metadata: a store created with 4 shards must refuse to
// reopen with 2 (before metadata landed, the keys silently vanished into
// unreachable shards) — and must also refuse a changed partitioner,
// while reopening correctly works without restating the configuration.
func TestReopenShardCountMismatch(t *testing.T) {
	fses := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS()}
	stableFS := func(i int) (vfs.FS, error) { return fses[i], nil }

	db, err := Open(Options{Shards: 4, ShardFS: stableFS})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		if err := db.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Open(Options{Shards: 2, ShardFS: stableFS})
	if err == nil || !strings.Contains(err.Error(), "created with 4 shards") {
		t.Fatalf("reopen with 2 shards = %v, want a descriptive mismatch error", err)
	}
	// Shards: 1 with a ShardFS still goes through the shard layer, so
	// even collapsing to a single instance is caught.
	_, err = Open(Options{Shards: 1, ShardFS: stableFS})
	if err == nil || !strings.Contains(err.Error(), "created with 4 shards") {
		t.Fatalf("reopen with 1 shard = %v, want a descriptive mismatch error", err)
	}
	// A changed partitioner at the right count is caught too.
	_, err = Open(Options{
		Shards:      4,
		ShardFS:     stableFS,
		Partitioner: "range",
		RangeSplits: [][]byte{[]byte("c"), []byte("e"), []byte("g")},
	})
	if err == nil || !strings.Contains(err.Error(), "partitioner") {
		t.Fatalf("reopen with range partitioner = %v, want mismatch error", err)
	}

	// The matching configuration reopens and serves every key.
	db, err = Open(Options{Shards: 4, ShardFS: stableFS})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, k := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		if v, err := db.Get([]byte(k)); err != nil || string(v) != k {
			t.Fatalf("after reopen Get(%s) = %q, %v", k, v, err)
		}
	}
}

// TestOpenRangePartitioned exercises the public range-partitioner knobs:
// splits route scans shard-locally, option validation catches misuse,
// and a reopen with no partitioner flags adopts the stored splits.
func TestOpenRangePartitioned(t *testing.T) {
	fses := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS()}
	stableFS := func(i int) (vfs.FS, error) { return fses[i], nil }

	if _, err := Open(Options{Shards: 3, ShardFS: ShardMemFS(), Partitioner: "range"}); err == nil {
		t.Fatal(`Partitioner "range" without RangeSplits succeeded`)
	}
	if _, err := Open(Options{Shards: 3, ShardFS: ShardMemFS(), Partitioner: "mod17"}); err == nil {
		t.Fatal("unknown partitioner name accepted")
	}
	// Routing knobs on a one-shard FS store are a misconfiguration, not
	// a silent no-op.
	if _, err := Open(Options{FS: vfs.NewMemFS(), Partitioner: "hash"}); err == nil ||
		!strings.Contains(err.Error(), "sharded stores only") {
		t.Fatalf("FS store Partitioner = %v, want misconfiguration error", err)
	}
	if _, err := Open(Options{FS: vfs.NewMemFS(), RangeSplits: [][]byte{[]byte("m")}}); err == nil {
		t.Fatal("FS store RangeSplits accepted")
	}
	// RangeSplits alone implies the range partitioner.
	db, err := Open(Options{
		Shards:      3,
		ShardFS:     stableFS,
		RangeSplits: [][]byte{[]byte("h"), []byte("p")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"ant", "horse", "zebra"} {
		if err := db.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator([]byte("a"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("bounded scan saw %d entries, want 1", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with no partitioner configuration: stored splits adopted.
	db, err = Open(Options{Shards: 3, ShardFS: stableFS})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, k := range []string{"ant", "horse", "zebra"} {
		if v, err := db.Get([]byte(k)); err != nil || string(v) != k {
			t.Fatalf("after adoption Get(%s) = %q, %v", k, v, err)
		}
	}
	if _, err := db.Get([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(nope) = %v, want ErrNotFound", err)
	}
}

func TestOpenShardsOneWithShardFS(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		db, err := Open(Options{Shards: n, ShardFS: ShardMemFS()})
		if err != nil {
			t.Fatalf("Shards=%d: %v", n, err)
		}
		if err := db.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("Shards=%d Put: %v", n, err)
		}
		if v, err := db.Get([]byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("Shards=%d Get = %q, %v", n, v, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
