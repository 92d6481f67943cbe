package triad

import (
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// TestReopenShardCountMismatch is the fail-fast regression test for the
// persisted store metadata: a store created with 4 shards must refuse to
// reopen with 2 (before metadata landed, the keys silently vanished into
// unreachable shards), while reopening with the original count works.
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

// TestOpenRangePartitioned: a store an older build created
// range-partitioned (its STORE records name the splits) is refused with
// an error naming its partitioner, at its own shard count or any other,
// and its shard directories are left as they were.
func TestOpenRangePartitioned(t *testing.T) {
	fses := []vfs.FS{vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS()}
	stableFS := func(i int) (vfs.FS, error) { return fses[i], nil }
	crc := crc32.MakeTable(crc32.Castagnoli)
	for i, fs := range fses[:3] {
		payload := fmt.Sprintf(`{"shards":3,"shard":%d,"partitioner":"range(68,70)","splits":["68","70"]}`, i)
		f, err := fs.Create("STORE")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(f, "TRIADSTORE v1 %08x %s\n", crc32.Checksum([]byte(payload), crc), payload)
		f.Close()
	}
	for _, n := range []int{3, 4} {
		db, err := Open(Options{Shards: n, ShardFS: stableFS})
		if err == nil {
			db.Close()
		}
		if err == nil || !strings.Contains(err.Error(), `partitioner "range(68,70)"`) {
			t.Fatalf("open of the range store with %d shards = %v, want a refusal naming its partitioner", n, err)
		}
	}
	if names, _ := fses[0].List(""); len(names) != 1 {
		t.Fatalf("the refused store's shard 0 now holds %v", names)
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
