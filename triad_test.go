package triad

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/bgsched"
	"repro/internal/lsm"
	"repro/internal/vfs"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	for _, profile := range []Profile{ProfileTriad, ProfileBaseline} {
		db, err := Open(Options{FS: vfs.NewMemFS(), Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		v, err := db.Get([]byte("k"))
		if err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		if err := db.Delete([]byte("k")); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted Get = %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPublicAPIOverrides: budgets set on an Advanced template reach the
// store: a small memtable flushes.
func TestPublicAPIOverrides(t *testing.T) {
	engine := TriadEngineOptions(nil)
	engine.MemtableBytes = 64 << 10
	engine.CommitLogBytes = 256 << 10
	db, err := Open(Options{FS: vfs.NewMemFS(), Advanced: &engine})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("small memtable never flushed")
	}
	files := db.NumLevelFiles()
	total := 0
	for _, n := range files {
		total += n
	}
	if total == 0 {
		t.Fatal("no table files after flush")
	}
}

func TestPublicAPIAdvanced(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := TriadEngineOptions(fs)
	opts.MemtableBytes = 64 << 10
	db, err := Open(Options{Advanced: &opts})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Advanced with nil FS in options falls back to Options.FS.
	opts2 := BaselineEngineOptions(nil)
	db2, err := Open(Options{FS: vfs.NewMemFS(), Advanced: &opts2})
	if err != nil {
		t.Fatal(err)
	}
	db2.Close()
}

func TestPublicAPIIterator(t *testing.T) {
	db, err := Open(Options{FS: vfs.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("%02d", i)), []byte("v"))
	}
	it, err := db.NewIterator([]byte("10"), []byte("20"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if n != 10 {
		t.Fatalf("scan = %d entries, want 10", n)
	}
}

// TestPublicAPISnapshot exercises the snapshot surface on a one-shard
// (FS) and a four-shard (ShardFS) store: frozen Get and scan,
// ErrSnapshotClosed after Close, and the open-snapshot gauge.
func TestPublicAPISnapshot(t *testing.T) {
	open := func(sharded bool) (*DB, error) {
		if sharded {
			return Open(Options{Shards: 4, ShardFS: ShardMemFS()})
		}
		return Open(Options{FS: vfs.NewMemFS()})
	}
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			db, err := open(sharded)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 200; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v1")); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if db.OpenSnapshots() == 0 {
				t.Fatal("OpenSnapshots = 0 with a live snapshot")
			}
			var b Batch
			for i := 0; i < 200; i++ {
				b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v2"))
			}
			b.Put([]byte("k999"), []byte("new"))
			if err := db.Apply(&b); err != nil {
				t.Fatal(err)
			}
			if v, err := snap.Get([]byte("k050")); err != nil || string(v) != "v1" {
				t.Fatalf("snapshot Get = %q, %v; want v1", v, err)
			}
			if _, err := snap.Get([]byte("k999")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("snapshot sees post-pin key: %v", err)
			}
			if v, err := db.Get([]byte("k050")); err != nil || string(v) != "v2" {
				t.Fatalf("live Get = %q, %v; want v2", v, err)
			}
			it, err := snap.NewIterator(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for it.Next() {
				if string(it.Value()) != "v1" {
					t.Fatalf("snapshot scan: %q = %q, want v1", it.Key(), it.Value())
				}
				n++
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n != 200 {
				t.Fatalf("snapshot scan saw %d entries, want 200", n)
			}
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			if err := snap.Close(); err != nil {
				t.Fatal("second Close:", err)
			}
			if _, err := snap.Get([]byte("k050")); !errors.Is(err, ErrSnapshotClosed) {
				t.Fatalf("Get after Close = %v, want ErrSnapshotClosed", err)
			}
			if it2, err := snap.NewIterator(nil, nil); !errors.Is(err, ErrSnapshotClosed) {
				t.Fatalf("NewIterator after Close = %v, want ErrSnapshotClosed", err)
			} else if it2 != nil {
				it2.Close()
			}
			if db.OpenSnapshots() != 0 {
				t.Fatalf("OpenSnapshots = %d after Close", db.OpenSnapshots())
			}
		})
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	fs := vfs.NewMemFS()
	db, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Close()
	db2, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 500; i++ {
		v, err := db2.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered Get(%d) = %q, %v", i, v, err)
		}
	}
}

func TestOpenRejectsBadOptions(t *testing.T) {
	for name, o := range map[string]Options{
		"no FS":                               {},
		"negative BackgroundWorkers, FS":      {FS: vfs.NewMemFS(), BackgroundWorkers: -1},
		"negative BackgroundWorkers, ShardFS": {Shards: 2, ShardFS: ShardMemFS(), BackgroundWorkers: -1},
	} {
		if db, err := Open(o); err == nil {
			db.Close()
			t.Errorf("%s: Open succeeded", name)
		}
	}
}

// TestOpenBackgroundWorkers: an explicit pool size reaches the store's
// one background pool, on FS and ShardFS stores alike.
func TestOpenBackgroundWorkers(t *testing.T) {
	for _, o := range []Options{
		{FS: vfs.NewMemFS(), BackgroundWorkers: 3},
		{Shards: 2, ShardFS: ShardMemFS(), BackgroundWorkers: 3},
	} {
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Scheduler().Workers(); got != 3 {
			t.Errorf("%d shard(s): pool of %d workers, want 3", db.NumShards(), got)
		}
		if err := db.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenBlockCacheBudget: BlockCacheBytes B over n shards gives each
// shard a share of ⌈B/n⌉, so the store's one cache holds ⌈B/n⌉·n ≥ B
// bytes, and a B smaller than n still caches. The Advanced template's
// BlockCacheBytes is the same store-wide budget.
func TestOpenBlockCacheBudget(t *testing.T) {
	advanced := TriadEngineOptions(nil)
	advanced.BlockCacheBytes = 1000
	for _, tc := range []struct {
		o    Options
		want int64
	}{
		{Options{FS: vfs.NewMemFS()}, 0},
		{Options{FS: vfs.NewMemFS(), BlockCacheBytes: 1 << 20}, 1 << 20},
		{Options{Shards: 3, ShardFS: ShardMemFS(), BlockCacheBytes: 1000003}, 333335 * 3},
		{Options{Shards: 4, ShardFS: ShardMemFS(), BlockCacheBytes: 3}, 4},
		{Options{Shards: 3, ShardFS: ShardMemFS(), Advanced: &advanced}, 334 * 3},
	} {
		db, err := Open(tc.o)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.BlockCacheStats().Capacity; got != tc.want {
			t.Errorf("%d shard(s), budget %d: cache of %d bytes, want %d", db.NumShards(), tc.o.BlockCacheBytes, got, tc.want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRootLayoutCompat: a store written by a bare engine at the root
// of a directory — the layout FS stores had before they opened through
// the shard layer, with no STORE record — opens through Open and reads
// back whole, and after Open has added its STORE record the bare engine
// still opens it. The bare engine numbers its writes itself, at explicit
// sequences 1..n, as the store's clock would.
func TestOpenRootLayoutCompat(t *testing.T) {
	dir := t.TempDir()
	osfs := func() vfs.FS {
		fs, err := vfs.NewOSFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	const n = 3000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := func(i int) string { return fmt.Sprintf("value-%d", i) }
	readAll := func(get func([]byte) ([]byte, error)) {
		t.Helper()
		for i := 0; i < n; i++ {
			if v, err := get(key(i)); err != nil || string(v) != val(i) {
				t.Fatalf("Get(%s) = %q, %v", key(i), v, err)
			}
		}
	}
	pool := bgsched.NewPool(bgsched.DefaultWorkers(1))
	defer pool.Close()
	engine := func() lsm.Options {
		o := lsm.TriadOptions(osfs())
		o.MemtableBytes = 64 << 10
		o.CommitLogBytes = 256 << 10
		o.Scheduler = pool
		return o
	}

	bare, err := lsm.Open(engine())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := bare.WriteAt(uint64(i+1), key(i), []byte(val(i)), base.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	if err := bare.Close(); err != nil {
		t.Fatal(err)
	}

	eo := engine()
	db, err := Open(Options{Advanced: &eo})
	if err != nil {
		t.Fatal(err)
	}
	readAll(db.Get)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	bare, err = lsm.Open(engine())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	readAll(bare.Get)
	if err := bare.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesShardedRoot: the root of a ShardDirs store opened
// through FS is refused, not served as an empty one-shard store.
func TestOpenRefusesShardedRoot(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Shards: 2, ShardFS: ShardDirs(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := vfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db, err := Open(Options{FS: fs}); err == nil {
		db.Close()
		t.Fatal("opened the root of a 2-shard store as one shard")
	} else if !strings.Contains(err.Error(), "created sharded") {
		t.Fatalf("Open = %v, want a sharded-root error", err)
	}
}
