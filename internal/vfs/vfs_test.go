package vfs

import (
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestMemFSCreateWriteRead(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil || size != 11 {
		t.Fatalf("Size = %d, %v; want 11", size, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Open("a.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 6); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("ReadAt = %q, want world", buf)
	}
	if _, err := r.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("ReadAt past end = %v, want EOF", err)
	}
}

func TestMemFSOpenMissing(t *testing.T) {
	fs := NewMemFS()
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open missing = %v, want ErrNotFound", err)
	}
	if err := fs.Remove("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove missing = %v, want ErrNotFound", err)
	}
	if err := fs.Rename("missing", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Rename missing = %v, want ErrNotFound", err)
	}
}

func TestMemFSRemoveRenameListExists(t *testing.T) {
	fs := NewMemFS()
	for _, name := range []string{"001.log", "002.log", "001.sst"} {
		f, _ := fs.Create(name)
		f.Close()
	}
	names, err := fs.List("")
	if err != nil || len(names) != 3 {
		t.Fatalf("List all = %v, %v", names, err)
	}
	logs, _ := fs.List("00")
	if len(logs) != 3 {
		t.Fatalf("List prefix 00 = %v", logs)
	}
	if !fs.Exists("001.log") {
		t.Fatal("Exists(001.log) = false")
	}
	if err := fs.Rename("001.log", "003.log"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("001.log") || !fs.Exists("003.log") {
		t.Fatal("rename did not move the file")
	}
	if err := fs.Remove("003.log"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("003.log") {
		t.Fatal("remove left the file behind")
	}
}

func TestMemFSStats(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("s")
	f.Write(make([]byte, 100))
	f.Write(make([]byte, 50))
	f.Sync()
	r, _ := fs.Open("s")
	buf := make([]byte, 30)
	r.ReadAt(buf, 0)
	if got := fs.Stats.BytesWritten.Load(); got != 150 {
		t.Errorf("BytesWritten = %d, want 150", got)
	}
	if got := fs.Stats.BytesRead.Load(); got != 30 {
		t.Errorf("BytesRead = %d, want 30", got)
	}
	if got := fs.Stats.Syncs.Load(); got != 1 {
		t.Errorf("Syncs = %d, want 1", got)
	}
	if got := fs.Stats.FilesCreated.Load(); got != 1 {
		t.Errorf("FilesCreated = %d, want 1", got)
	}
}

// TestMemFSFaultInjection: a call its Before fails returns that error and
// changes nothing — no byte, no name, no Stats counter, and a refused Close
// leaves the handle open. A Before can aim its faults, here at every third
// write.
func TestMemFSFaultInjection(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	f.Write([]byte("hello"))
	r, _ := fs.Open("a")
	stats := func() [7]int64 {
		st := &fs.Stats
		return [7]int64{st.BytesWritten.Load(), st.BytesRead.Load(), st.WriteOps.Load(), st.ReadOps.Load(),
			st.Syncs.Load(), st.FilesCreated.Load(), st.FilesRemoved.Load()}
	}
	before := stats()
	var seen []OpKind
	fs.SetHooks(Hooks{Before: func(op Op) error {
		seen = append(seen, op.Kind)
		return ErrInjected
	}})
	_, createErr := fs.Create("a") // would truncate
	_, openErr := fs.Open("a")
	_, writeErr := f.Write([]byte("!"))
	_, readErr := r.ReadAt(make([]byte, 5), 0)
	for i, err := range []error{createErr, openErr, writeErr, readErr, f.Sync(), f.Close(), fs.Remove("a"), fs.Rename("a", "b")} {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d = %v, want ErrInjected", i, err)
		}
	}
	if want := []OpKind{OpCreate, OpOpen, OpWrite, OpReadAt, OpSync, OpClose, OpRemove, OpRename}; !slices.Equal(seen, want) {
		t.Fatalf("Before saw %v, want %v", seen, want)
	}
	if got := stats(); got != before {
		t.Fatalf("Stats %v after refused calls, %v before", got, before)
	}

	writes := 0
	fs.SetHooks(Hooks{Before: func(op Op) error {
		if op.Kind == OpWrite {
			if writes++; writes%3 == 0 {
				return ErrInjected
			}
		}
		return nil
	}})
	var fails int
	for i := 0; i < 9; i++ {
		if _, err := f.Write([]byte("!")); errors.Is(err, ErrInjected) { // the handle is still open
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("injected failures = %d, want 3", fails)
	}
	fs.SetHooks(Hooks{})
	if _, err := f.Write([]byte("!")); err != nil {
		t.Fatalf("write after disabling injection failed: %v", err)
	}
	buf := make([]byte, 20)
	if n, _ := r.ReadAt(buf, 0); string(buf[:n]) != "hello!!!!!!!" || !fs.Exists("a") || fs.Exists("b") {
		t.Fatalf("a holds %q after 7 writes got through, want hello!!!!!!!", buf[:n])
	}
}

// TestMemFSHooksConcurrent: four writers race, and the first write of one
// of them is parked in Before until the other three are done — a parked
// call holds up no other. The Clone each write's After takes holds exactly
// that write and the ones whose After ran before it, never a write still
// in flight on another file.
func TestMemFSHooksConcurrent(t *testing.T) {
	fs := NewMemFS()
	names := []string{"parked", "b", "c", "d"}
	files := make([]File, len(names))
	for i, name := range names {
		files[i], _ = fs.Create(name)
	}
	var others sync.WaitGroup
	others.Add(len(names) - 1)
	var park sync.Once
	// MemFS runs the Afters one at a time already; mu makes a MemFS that
	// does not fail on the assertion below rather than on a map race.
	var mu sync.Mutex
	sizes := map[string]int64{}
	fs.SetHooks(Hooks{
		Before: func(op Op) error {
			if op.Kind == OpWrite && op.Name == "parked" {
				park.Do(others.Wait)
			}
			return nil
		},
		After: func(op Op) {
			mu.Lock()
			defer mu.Unlock()
			sizes[op.Name] += int64(op.N)
			img := fs.Clone()
			for _, name := range names {
				if got := img.files[name].size; got != sizes[name] {
					t.Errorf("after a write of %d B to %s, the clone holds %d B of %s; %d B were written",
						op.N, op.Name, got, name, sizes[name])
				}
			}
		},
	})
	watchdog := time.AfterFunc(time.Minute, func() { panic("writers waited for a parked Before") })
	defer watchdog.Stop()
	var all sync.WaitGroup
	for i, name := range names {
		all.Add(1)
		go func() {
			defer all.Done()
			if name != "parked" {
				defer others.Done()
			}
			rng := rand.New(rand.NewSource(int64(i)))
			for w := 0; w < 100; w++ {
				if _, err := files[i].Write(make([]byte, 1+rng.Intn(300))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	all.Wait()
}

func TestClosedFile(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	f.Close()
	if _, err := f.Write([]byte("a")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after close = %v, want ErrClosed", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after close = %v, want ErrClosed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
}

func TestOSFS(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("a.txt")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !fs.Exists("a.txt") {
		t.Fatal("Exists = false after create")
	}
	r, err := fs.Open("a.txt")
	if err != nil {
		t.Fatal(err)
	}
	size, err := r.Size()
	if err != nil || size != 4 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	buf := make([]byte, 4)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "data" {
		t.Fatalf("read %q", buf)
	}
	r.Close()
	names, err := fs.List("a")
	if err != nil || len(names) != 1 {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := fs.Rename("a.txt", "b.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("b.txt"); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSConcurrent(t *testing.T) {
	fs := NewMemFS()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			name := string(rune('a' + g))
			f, err := fs.Create(name)
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 1000; i++ {
				if _, err := f.Write([]byte{byte(i)}); err != nil {
					done <- err
					return
				}
			}
			done <- f.Close()
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	names, _ := fs.List("")
	if len(names) != 8 {
		t.Fatalf("expected 8 files, got %d", len(names))
	}
}
