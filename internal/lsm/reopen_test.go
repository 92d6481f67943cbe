package lsm

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// TestReopenWritesNoLog opens crash images with 1, 2 and 6 unflushed commit
// logs, baseline and TRIAD. The reopened memtable points into the logs it
// was replayed from, so Open appends nothing to any log, and every
// acknowledged write reads back. A power cut right after Open — every file
// cut to its synced length, where a process crash may have left all of the
// replayed logs' bytes unsynced — and a crash before the first Flush both
// recover every write; after that Flush no replayed log is left and the
// store is consistent.
func TestReopenWritesNoLog(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts func(*vfs.MemFS) Options
	}{{"baseline", smallOptions}, {"triad", triadSmall}} {
		for _, n := range []int{1, 2, 6} {
			t.Run(fmt.Sprintf("%s/logs=%d", mode.name, n), func(t *testing.T) {
				o := mode.opts(nil)
				// A log fills long before the memtable; under TRIAD-MEM the
				// first fill is a skip, the second a seal with two logs.
				o.CommitLogBytes = 4 << 10
				o.DisableAutoCompaction = true
				img, acked := unflushedImage(t, o, n)
				replayed := logFiles(t, img)
				if len(replayed) != n {
					t.Fatalf("image with logs %v, want %d", replayed, n)
				}

				// Before Open, only the logs may be short of what they hold.
				p := trackSyncs(img, nil)
				names, err := img.List("")
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					f, err := img.Open(name)
					if err != nil {
						t.Fatal(err)
					}
					size, _ := f.Size()
					f.Close()
					p.written[name] = size
					if !strings.HasSuffix(name, ".log") {
						p.synced[name] = size
					}
				}

				o.FS = img
				db := mustOpen(t, o)
				defer db.Close()
				if got := db.Metrics().BytesLogged; got != 0 {
					t.Errorf("Open appended %d B to the logs", got)
				}
				checkAgainst(t, db, acked)
				for what, cut := range map[string]*vfs.MemFS{"power cut": p.image(), "crash": img.Clone()} {
					ro := o
					ro.FS = cut
					rdb := mustOpen(t, ro)
					for k, want := range acked {
						if got, err := rdb.Get([]byte(k)); err != nil || string(got) != want {
							t.Fatalf("%s after Open: Get(%q) = %.10q..., %v", what, k, got, err)
						}
					}
					if err := rdb.Close(); err != nil {
						t.Fatalf("%s after Open: %v", what, err)
					}
				}

				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				for _, name := range replayed {
					if img.Exists(name) {
						t.Errorf("replayed log %s outlived the first Flush", name)
					}
				}
				if err := db.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
				checkAgainst(t, db, acked)
			})
		}
	}
}

// unflushedImage writes new keys, flushes parked at their table's creation,
// and returns the last crash image with n commit logs on disk and the
// writes it acknowledged. When the flush queue is full before any image
// has n logs, it crashes, reopens the image and writes on.
func unflushedImage(t *testing.T, o Options, n int) (*vfs.MemFS, map[string]string) {
	t.Helper()
	fs := vfs.NewMemFS()
	acked := map[string]string{}
	for round := 0; round < 3; round++ {
		release := parkTables(fs)
		o.FS = fs
		db := mustOpen(t, o)
		var img, last *vfs.MemFS // last: the newest image with n logs
		var lastAcked map[string]string
		for full := false; !full; {
			k, v := fmt.Sprintf("key-%06d", len(acked)), fmt.Sprintf("%0100d", len(acked))
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			acked[k] = v
			img = fs.Clone()
			if logs := len(logFiles(t, img)); logs > n {
				break
			} else if logs == n {
				last, lastAcked = img, maps.Clone(acked)
			}
			db.mu.Lock()
			full = len(db.imm) > maxImmutableMemtables
			db.mu.Unlock()
		}
		release()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if last != nil {
			return last, lastAcked
		}
		fs = img
	}
	t.Fatalf("no image with %d unflushed logs", n)
	return nil, nil
}

// parkTables replaces fs's hooks with one that holds up the creation of
// every table file, and with it every flush, until release is called.
func parkTables(fs *vfs.MemFS) (release func()) {
	park := make(chan struct{})
	fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpCreate && (strings.HasSuffix(op.Name, ".sst") || strings.HasSuffix(op.Name, ".clidx")) {
			<-park
		}
		return nil
	}})
	return func() { close(park) }
}
