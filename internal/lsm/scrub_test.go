package lsm

import (
	"fmt"
	"testing"

	"repro/internal/vfs"
)

func TestCheckConsistencyCleanTree(t *testing.T) {
	for _, mode := range []string{"baseline", "triad"} {
		t.Run(mode, func(t *testing.T) {
			fs := vfs.NewMemFS()
			o := smallOptions(fs)
			if mode == "triad" {
				o = triadSmall(fs)
			}
			db := mustOpen(t, o)
			for i := 0; i < 3000; i++ {
				if err := clocked(db).Put([]byte(fmt.Sprintf("key-%05d", i%800)), make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if err := db.CheckConsistency(); err != nil {
				t.Fatalf("after compaction: %v", err)
			}
		})
	}
}

func TestCheckConsistencyAfterRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	db := mustOpen(t, o)
	for i := 0; i < 3000; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("key-%05d", i%800)), make([]byte, 100))
	}
	db.Close()
	db2 := mustOpen(t, o)
	if err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistencyDetectsMissingPinnedLog(t *testing.T) {
	fs := vfs.NewMemFS()
	o := triadSmall(fs)
	o.DisableAutoCompaction = true // keep CL-SSTables in L0
	db := mustOpen(t, o)
	for i := 0; i < 2000; i++ {
		clocked(db).Put([]byte(fmt.Sprintf("key-%05d", i)), make([]byte, 100))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Sabotage: remove one pinned log out from under a CL-SSTable.
	names, _ := fs.List("")
	removed := false
	db.versionMu.RLock()
	var pinned map[uint64]bool = map[uint64]bool{}
	for _, f := range db.version.Levels[0] {
		if f.LogID != 0 {
			pinned[f.LogID] = true
		}
	}
	db.versionMu.RUnlock()
	for _, n := range names {
		var id uint64
		if _, err := fmt.Sscanf(n, "%d.log", &id); err == nil && pinned[id] {
			fs.Remove(n)
			removed = true
			break
		}
	}
	if !removed {
		t.Skip("no pinned log materialized")
	}
	if err := db.CheckConsistency(); err == nil {
		t.Fatal("scrub missed the missing pinned log")
	}
}
