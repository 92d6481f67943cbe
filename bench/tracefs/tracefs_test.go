package tracefs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/lsm"
	"repro/internal/shard"
	"repro/internal/vfs"
)

func TestKindOf(t *testing.T) {
	for name, want := range map[string]Kind{
		"000012.log":   KindLog,
		"000007.sst":   KindSST,
		"000007.clidx": KindCLIdx,
		"MANIFEST":     KindManifest,
		"MANIFEST.new": KindManifest,
		"STORE":        KindStore,
		"STORE.tmp":    KindStore,
		"LOCK":         KindOther,
	} {
		if got := KindOf(name); got != want {
			t.Errorf("KindOf(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestCountsEqualMemFS drives a scripted sequence through the wrapper
// and checks that its totals are exactly what vfs.MemFS counted itself.
func TestCountsEqualMemFS(t *testing.T) {
	mem := vfs.NewMemFS()
	c := &Counters{}
	fs := New(mem, c, nil)

	names := []string{"000001.log", "000002.sst", "000002.clidx", "MANIFEST.new", "STORE.tmp"}
	for i, name := range names {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			if _, err := f.Write(bytes.Repeat([]byte{byte(j)}, 100*(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Rename("MANIFEST.new", "MANIFEST"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("STORE.tmp", "STORE"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"000001.log", "000002.sst", "MANIFEST", "STORE"} {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if _, err := f.ReadAt(buf, 0); err != nil { // full read
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.ReadAt(buf, size-10); n != 10 || err != io.EOF { // short read: counted
			t.Fatalf("short read: n=%d err=%v", n, err)
		}
		if n, err := f.ReadAt(buf, size); n != 0 || err != io.EOF { // past the end: not counted
			t.Fatalf("read at end: n=%d err=%v", n, err)
		}
		f.Close()
	}
	if _, err := fs.Open("missing.sst"); err == nil {
		t.Fatal("open of a missing file succeeded")
	}
	if err := fs.Remove("000002.clidx"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("000002.clidx"); err == nil {
		t.Fatal("second remove succeeded")
	}

	snap := c.Snapshot()
	got := snap.Total()
	want := KindStats{
		BytesWritten: mem.Stats.BytesWritten.Load(), WriteOps: mem.Stats.WriteOps.Load(),
		BytesRead: mem.Stats.BytesRead.Load(), ReadOps: mem.Stats.ReadOps.Load(),
		Syncs: mem.Stats.Syncs.Load(), FilesCreated: mem.Stats.FilesCreated.Load(),
		FilesRemoved: mem.Stats.FilesRemoved.Load(),
	}
	if got != want {
		t.Fatalf("wrapper counted %+v, MemFS counted %+v", got, want)
	}
	if got.WriteOps == 0 || got.ReadOps == 0 || got.Syncs == 0 || got.FilesRemoved != 1 {
		t.Fatalf("script did not exercise every counter: %+v", got)
	}
	if snap[KindOther] != (KindStats{}) {
		t.Fatalf("script touched an unclassified file: %+v", snap[KindOther])
	}
	// Per-kind split: the log was written once with 100 bytes.
	if snap[KindLog].BytesWritten != 100 || snap[KindSST].BytesWritten != 2*200 {
		t.Fatalf("per-kind split wrong: log %+v sst %+v", snap[KindLog], snap[KindSST])
	}
	resident, err := ResidentBytes(mem)
	if err != nil {
		t.Fatal(err)
	}
	if want := got.BytesWritten - 3*300; resident != want { // the removed index held 3 writes of 300
		t.Fatalf("resident %d, want %d", resident, want)
	}
}

// TestKindsCoverEngine runs a real store through flushes and compactions
// and fails if it creates a file the classifier does not know, so a new
// file type cannot fall outside the write-amplification split unnoticed.
func TestKindsCoverEngine(t *testing.T) {
	c := &Counters{}
	var mems []*vfs.MemFS
	eo := lsm.TriadOptions(nil)
	eo.MemtableBytes = 16 << 10
	eo.CommitLogBytes = 64 << 10
	eo.FlushThresholdBytes = 8 << 10
	eo.TargetFileBytes = 16 << 10
	eo.BaseLevelBytes = 64 << 10
	db, err := shard.Open(shard.Options{
		Shards: 2,
		Engine: eo,
		NewFS: func(int) (vfs.FS, error) {
			m := vfs.NewMemFS()
			mems = append(mems, m)
			return New(m, c, nil), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 200)
	for i := 0; i < 4000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i*7919%4000)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("key-000001")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap[KindOther] != (KindStats{}) {
		for _, m := range mems {
			names, _ := m.List("")
			t.Logf("files: %v", names)
		}
		t.Fatalf("the engine touched a file of unknown kind: %+v", snap[KindOther])
	}
	for k := KindLog; k < KindOther; k++ {
		if snap[k].FilesCreated == 0 || snap[k].BytesWritten == 0 {
			t.Errorf("the engine created no %v file (%+v): the classifier may be stale", k, snap[k])
		}
	}
	var memTotal int64
	for _, m := range mems {
		memTotal += m.Stats.BytesWritten.Load()
	}
	if got := snap.Total().BytesWritten; got != memTotal {
		t.Fatalf("wrapper saw %d bytes written, MemFS %d", got, memTotal)
	}
}

// TestUntracedCallsDoNotAllocate pins the cost of counting mode: with the
// recorder absent or switched off, a call adds atomic adds and nothing
// for the collector.
func TestUntracedCallsDoNotAllocate(t *testing.T) {
	for _, rec := range []*Recorder{nil, NewRecorder(0)} {
		mem := vfs.NewMemFS()
		fs := New(mem, &Counters{}, rec)
		f, err := fs.Create("000001.log")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 128)
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
		plain, err := mem.Open("000001.log")
		if err != nil {
			t.Fatal(err)
		}
		// MemFS itself may allocate (its file grows); only the
		// wrapper's own cost is pinned, so compare like with like.
		base := testing.AllocsPerRun(200, func() { plain.ReadAt(buf, 0); plain.Sync() })
		got := testing.AllocsPerRun(200, func() { f.ReadAt(buf, 0); f.Sync() })
		if got != base {
			t.Errorf("recorder %v: wrapped ReadAt+Sync allocate %v, bare %v", rec != nil, got, base)
		}
		if got := testing.AllocsPerRun(200, func() {
			tok := rec.Enter(0)
			rec.Exit(tok)
		}); got != 0 {
			t.Errorf("recorder %v: Enter/Exit while off allocate %v", rec != nil, got)
		}
	}
}

func TestRecorderParentsAndSelfTime(t *testing.T) {
	rec := NewRecorder(16)
	opName := rec.Name("op.get")
	mem := vfs.NewMemFS()
	fs := New(mem, &Counters{}, rec)
	w, err := fs.Create("000001.log")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, 300))
	f, err := fs.Open("000001.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans()) != 0 {
		t.Fatal("spans recorded while off")
	}

	rec.SetOn(true)
	buf := make([]byte, 100)
	tok := rec.Enter(opName)
	f.ReadAt(buf, 0)   // first access
	f.ReadAt(buf, 100) // continues the first
	f.ReadAt(buf, 0)   // a new access
	rec.Exit(tok)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a background goroutine: no enclosing span
		defer wg.Done()
		f.ReadAt(buf, 0)
	}()
	wg.Wait()
	rec.SetOn(false)
	f.ReadAt(buf, 0) // off again: not recorded

	spans := rec.Spans()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}
	var op Span
	for _, s := range spans {
		if s.Name == opName {
			op = s
		}
	}
	var fg, bg, contig int
	var childDur int64
	for _, s := range spans {
		if s.Name == opName {
			continue
		}
		if rec.Names()[s.Name] != "read.log" || !IsDataRead(s.Name) {
			t.Errorf("span named %q", rec.Names()[s.Name])
		}
		switch s.Parent {
		case op.ID:
			fg++
			childDur += s.Dur
			if s.Contig {
				contig++
			}
		case 0:
			bg++
		default:
			t.Errorf("span %d has parent %d", s.ID, s.Parent)
		}
	}
	if fg != 3 || bg != 1 || contig != 1 {
		t.Fatalf("foreground %d (want 3), background %d (want 1), contiguous %d (want 1)", fg, bg, contig)
	}
	agg := Aggregate(spans, len(rec.Names()))
	if got := agg[opName]; got.Count != 1 || got.Self != op.Dur-childDur || got.Self < 0 {
		t.Fatalf("op aggregate %+v, op dur %d, children %d", got, op.Dur, childDur)
	}
	var out bytes.Buffer
	if err := rec.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte(`"op.get"`)) || bytes.Count(out.Bytes(), []byte("\n[")) != 5 {
		t.Fatalf("unexpected JSON:\n%s", out.String())
	}
}
