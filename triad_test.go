package triad

import (
	"errors"
	"fmt"
	"testing"

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

func TestPublicAPIOverrides(t *testing.T) {
	db, err := Open(Options{
		FS:             vfs.NewMemFS(),
		Profile:        ProfileTriad,
		MemtableBytes:  64 << 10,
		CommitLogBytes: 256 << 10,
	})
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

// TestPublicAPISnapshot exercises the snapshot surface on both the
// unsharded and sharded backends: frozen Get and scan, ErrSnapshotClosed
// after Close, and the open-snapshot gauge.
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
		"no FS":                                 {},
		"negative BackgroundWorkers, unsharded": {FS: vfs.NewMemFS(), BackgroundWorkers: -1},
		"negative BackgroundWorkers, sharded":   {Shards: 2, ShardFS: ShardMemFS(), BackgroundWorkers: -1},
	} {
		if db, err := Open(o); err == nil {
			db.Close()
			t.Errorf("%s: Open succeeded", name)
		}
	}
}

// TestOpenBackgroundWorkers: an unsharded store honours an explicit pool
// size and closes the pool it built for it.
func TestOpenBackgroundWorkers(t *testing.T) {
	db, err := Open(Options{FS: vfs.NewMemFS(), BackgroundWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.ownPool.Workers(); got != 3 {
		t.Errorf("pool of %d workers, want 3", got)
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
