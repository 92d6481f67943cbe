package lsm_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// TestFlushFaultSetsBackgroundError: a failure during flush is surfaced
// on subsequent writes rather than silently dropped, and leaves a record
// where an operator looks: an event of its own kind naming the shard and
// the error, a line for the shard in STATS, and the shard's
// triad_shard_background_error gauge at 1 (the healthy shard's at 0).
func TestFlushFaultSetsBackgroundError(t *testing.T) {
	fss := []*vfs.MemFS{vfs.NewMemFS(), vfs.NewMemFS()}
	o := lsm.DefaultOptions(nil)
	o.MemtableBytes, o.CommitLogBytes = 64<<10, 256<<10
	db, err := shard.Open(shard.Options{Shards: 2, Engine: o, NewFS: func(i int) (vfs.FS, error) { return fss[i], nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Every third write to shard 1's files fails while it flushes.
	var writes atomic.Int64
	fss[1].SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpWrite && writes.Add(1)%3 == 0 {
			return vfs.ErrInjected
		}
		return nil
	}})
	db.Flush() // may or may not error directly
	fss[1].SetHooks(vfs.Hooks{})
	// The background error must surface on the write path.
	var sawErr bool
	for i := 0; i < 100 && !sawErr; i++ {
		if err := db.Put([]byte(fmt.Sprintf("probe-%02d", i)), []byte("v")); err != nil && !errors.Is(err, lsm.ErrClosed) {
			sawErr = true
		}
	}
	bgErr := db.Shard(1).BackgroundError()
	if !sawErr || !errors.Is(bgErr, vfs.ErrInjected) || db.Shard(0).BackgroundError() != nil {
		t.Fatalf("writes failed %v; background errors %v, %v: want shard 1's injected fault alone", sawErr, db.Shard(0).BackgroundError(), bgErr)
	}

	var recorded []obs.Event
	for _, e := range db.Events().Events(0) {
		if e.Kind == obs.EventBackgroundError {
			recorded = append(recorded, e)
		}
	}
	if len(recorded) != 1 || recorded[0].Shard != 1 || !strings.Contains(recorded[0].String(), "background-error shard=1") ||
		!strings.Contains(recorded[0].Detail, bgErr.Error()) {
		t.Fatalf("background-error events %v, want one for shard 1 saying %q", recorded, bgErr)
	}
	if stats, line := db.Stats(), fmt.Sprintf("  s1: background error (writes fail until reopened): %v\n", bgErr); !strings.Contains(stats, line) || strings.Contains(stats, "s0: background error") {
		t.Fatalf("STATS does not show shard 1's error, or shows one for shard 0:\n%s", stats)
	}
	srv := server.New(db, server.Config{})
	defer srv.Close()
	text := srv.MetricsText()
	for shard, want := range []string{"0", "1"} {
		if series := fmt.Sprintf("triad_shard_background_error{shard=\"%d\"} %s\n", shard, want); !strings.Contains(text, series) {
			t.Fatalf("/metrics lacks %q", series)
		}
	}
}
