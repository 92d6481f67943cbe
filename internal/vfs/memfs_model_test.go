package vfs

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// TestMemFSModel drives random Create/Write/ReadAt/Size/Sync/Rename/Remove/
// Clone/Crash sequences against a map of byte buffers and each file's
// synced length. Write sizes and read windows are drawn around the extent
// size, so appends fill, exactly reach and overflow an extent, reads start,
// end and straddle at extent boundaries, and crashes cut files at and
// beside them; every read and every size must match the oracle, and the
// I/O counters must equal what the oracle saw move. Every clone must still
// hold, at the end, exactly the files the oracle held when it was taken,
// and every crash, and the Crash of every clone, those files cut to their
// synced lengths.
func TestMemFSModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := NewMemFS()
		files := map[string]File{}
		oracle := map[string]*bytes.Buffer{}
		synced := map[string]int{}
		var wroteBytes, wroteOps, readBytes, readOps int64
		type clone struct {
			fs, crash  *MemFS
			files, cut map[string][]byte
		}
		var clones []clone
		names := []string{"a", "b", "c", "d"}
		// length draws a size that is small, or within a few bytes of a
		// multiple of the extent size.
		length := func() int {
			if rng.Intn(4) != 0 {
				return rng.Intn(300)
			}
			return (1+rng.Intn(3))*extentSize - 3 + rng.Intn(7)
		}
		for step := 0; step < 2000; step++ {
			name := names[rng.Intn(len(names))]
			want, live := oracle[name]
			switch op := rng.Intn(102); {
			case op >= 100:
				c := clone{fs.Clone(), fs.Crash(), map[string][]byte{}, map[string][]byte{}}
				for name, b := range oracle {
					c.files[name] = bytes.Clone(b.Bytes())
					c.cut[name] = c.files[name][:synced[name]]
				}
				clones = append(clones, c)
			case op < 5 || !live && op < 60: // create (or truncate)
				f, err := fs.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				files[name], oracle[name], synced[name] = f, &bytes.Buffer{}, 0
			case !live:
				if _, err := fs.Open(name); err == nil {
					t.Fatalf("seed %d step %d: open of absent %q succeeded", seed, step, name)
				}
			case op < 50: // append
				p := make([]byte, length())
				rng.Read(p)
				if n, err := files[name].Write(p); err != nil || n != len(p) {
					t.Fatalf("seed %d step %d: Write = %d, %v", seed, step, n, err)
				}
				want.Write(p)
				wroteBytes += int64(len(p))
				wroteOps++
			case op < 80: // read a window through a fresh handle
				f, err := fs.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				if size, err := f.Size(); err != nil || size != int64(want.Len()) {
					t.Fatalf("seed %d step %d: Size = %d, %v; oracle %d", seed, step, size, err, want.Len())
				}
				off := 0
				if want.Len() > 0 {
					off = rng.Intn(want.Len() + 1)
					if rng.Intn(2) == 0 { // start at or next to an extent boundary
						off = min(want.Len(), off/extentSize*extentSize+rng.Intn(3))
					}
				}
				p := make([]byte, length())
				n, err := f.ReadAt(p, int64(off))
				exp := want.Bytes()[off:]
				switch {
				case len(exp) == 0:
					if n != 0 || err != io.EOF {
						t.Fatalf("seed %d step %d: read at end = %d, %v", seed, step, n, err)
					}
				case len(exp) < len(p):
					if n != len(exp) || err != io.EOF {
						t.Fatalf("seed %d step %d: short read = %d, %v; want %d, EOF", seed, step, n, err, len(exp))
					}
				default:
					if n != len(p) || err != nil {
						t.Fatalf("seed %d step %d: read = %d, %v; want %d", seed, step, n, err, len(p))
					}
				}
				if !bytes.Equal(p[:n], exp[:n]) {
					t.Fatalf("seed %d step %d: %d bytes at %d of %q differ from the oracle", seed, step, n, off, name)
				}
				if len(exp) > 0 {
					readBytes += int64(n)
					readOps++
				}
				f.Close()
			case op < 90: // sync through the handle that wrote the file
				if err := files[name].Sync(); err != nil {
					t.Fatal(err)
				}
				synced[name] = want.Len()
			case op < 95: // rename over another name; open handles follow the file
				to := names[rng.Intn(len(names))]
				if to == name {
					continue
				}
				if err := fs.Rename(name, to); err != nil {
					t.Fatal(err)
				}
				files[to], oracle[to], synced[to] = files[name], want, synced[name]
				delete(files, name)
				delete(oracle, name)
				delete(synced, name)
			default:
				if err := fs.Remove(name); err != nil {
					t.Fatal(err)
				}
				delete(files, name)
				delete(oracle, name)
				delete(synced, name)
			}
		}
		if got, _ := fs.List(""); len(got) != len(oracle) {
			t.Fatalf("seed %d: List = %v, oracle has %d files", seed, got, len(oracle))
		}
		st := &fs.Stats
		if st.BytesWritten.Load() != wroteBytes || st.WriteOps.Load() != wroteOps ||
			st.BytesRead.Load() != readBytes || st.ReadOps.Load() != readOps {
			t.Fatalf("seed %d: stats wrote %d B / %d ops, read %d B / %d ops; oracle %d / %d, %d / %d", seed,
				st.BytesWritten.Load(), st.WriteOps.Load(), st.BytesRead.Load(), st.ReadOps.Load(),
				wroteBytes, wroteOps, readBytes, readOps)
		}
		// holds fails t unless fs holds exactly the files of oracle.
		holds := func(what string, i int, fs *MemFS, oracle map[string][]byte) {
			if got, _ := fs.List(""); len(got) != len(oracle) {
				t.Fatalf("seed %d %s %d: List = %v, oracle had %d files", seed, what, i, got, len(oracle))
			}
			for name, want := range oracle {
				n, ok := fs.files[name]
				if !ok {
					t.Fatalf("seed %d %s %d: no %q", seed, what, i, name)
				}
				got := make([]byte, n.size)
				if n.readAt(got, 0); !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s %d: %q (%d bytes) differs from the oracle's %d bytes", seed, what, i, name, n.size, len(want))
				}
			}
		}
		for i, c := range clones {
			holds("clone", i, c.fs, c.files)
			holds("crash", i, c.crash, c.cut)
			holds("crash of clone", i, c.fs.Crash(), c.cut)
		}
		if len(clones) == 0 {
			t.Fatalf("seed %d: no clone taken", seed)
		}
	}
}

// TestMemFSReadDuringAppend: a reader sharing a file with its appender
// (a Get on a CL-SSTable's log is exactly this) sees a size that only
// grows and, below it, exactly the bytes appended — across extent
// boundaries, under -race.
func TestMemFSReadDuringAppend(t *testing.T) {
	fs := NewMemFS()
	w, err := fs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	const total = 12*extentSize + 123
	at := func(off int64) byte { return byte(off * 31) }
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		r, err := fs.Open("log")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close()
		rng := rand.New(rand.NewSource(1))
		var seen int64
		buf := make([]byte, 2*extentSize)
		for seen < total {
			size, err := r.Size()
			if err != nil || size < seen {
				t.Errorf("Size = %d, %v after %d", size, err, seen)
				return
			}
			seen = size
			if size == 0 {
				continue
			}
			off := rng.Int63n(size)
			n, err := r.ReadAt(buf[:1+rng.Intn(len(buf))], off)
			if err != nil && err != io.EOF {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				if buf[i] != at(off+int64(i)) {
					t.Errorf("byte %d read as %d, appended as %d", off+int64(i), buf[i], at(off+int64(i)))
					return
				}
			}
		}
	}()
	<-started
	rng := rand.New(rand.NewSource(2))
	for off := int64(0); off < total; {
		p := make([]byte, min(int64(1+rng.Intn(3000)), total-off))
		for i := range p {
			p[i] = at(off + int64(i))
		}
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		off += int64(len(p))
	}
	wg.Wait()
}
