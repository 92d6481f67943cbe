package shard

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgsched"
	"repro/internal/vfs"
)

// waitGoroutines polls until the goroutine count is back at (or below)
// want: a closed pool's workers have signalled done but may not have
// left the scheduler yet.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOnePoolPerStore: however many shards a store has, its background
// plane is one pool of DefaultWorkers(shards) goroutines (or the size
// asked for) — the shards add none of their own.
func TestOnePoolPerStore(t *testing.T) {
	for _, tc := range []struct{ shards, workers, want int }{
		{1, 0, bgsched.DefaultWorkers(1)},
		{4, 0, bgsched.DefaultWorkers(4)},
		{8, 0, bgsched.DefaultWorkers(8)},
		{8, 3, 3},
	} {
		before := runtime.NumGoroutine()
		db, err := Open(Options{Shards: tc.shards, Engine: smallEngine(), NewFS: MemFS(), BackgroundWorkers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Scheduler().Workers(); got != tc.want {
			t.Errorf("%d shards, BackgroundWorkers %d: pool of %d workers, want %d", tc.shards, tc.workers, got, tc.want)
		}
		if grew := runtime.NumGoroutine() - before; grew > tc.want {
			t.Errorf("%d shards: Open started %d goroutines, want at most the pool's %d", tc.shards, grew, tc.want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, before)
	}
}

// TestFailedOpenClosesEarlierShards: when the last shard's recovery
// fails, Open closes the shards it had already opened and the store's
// pool — no file handle and no goroutine is left behind.
func TestFailedOpenClosesEarlierShards(t *testing.T) {
	const shards = 3
	mems := make([]*vfs.MemFS, shards)
	for i := range mems {
		mems[i] = vfs.NewMemFS()
	}
	memFS := func(i int) (vfs.FS, error) { return mems[i], nil }
	db, err := Open(Options{Shards: shards, Engine: smallEngine(), NewFS: memFS})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{5}, 100)
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate one table of the last shard (Create truncates).
	names, err := mems[shards-1].List("")
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") || strings.HasSuffix(n, ".clidx") {
			victim = n
		}
	}
	if victim == "" {
		t.Fatalf("last shard has no table to damage: %v", names)
	}
	f, err := mems[shards-1].Create(victim)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	before := runtime.NumGoroutine()
	// Count the file handles the store holds open, which MemFS itself
	// does not track.
	var open atomic.Int64
	for _, mem := range mems {
		mem.SetHooks(vfs.Hooks{After: func(op vfs.Op) {
			switch op.Kind {
			case vfs.OpCreate, vfs.OpOpen:
				open.Add(1)
			case vfs.OpClose:
				open.Add(-1)
			}
		}})
	}
	_, err = Open(Options{Shards: shards, Engine: smallEngine(), NewFS: memFS})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d", shards-1)) {
		t.Fatalf("Open over a truncated %s in the last shard: %v", victim, err)
	}
	if n := open.Load(); n != 0 {
		t.Errorf("failed Open left %d file handles open", n)
	}
	waitGoroutines(t, before)
}
