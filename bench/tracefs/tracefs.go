// Package tracefs is the benchmark's view of the store's disk: a vfs.FS
// wrapper that counts every call by the kind of file it touches (commit
// log, sstable, CL-SSTable index, MANIFEST, STORE) and, while a Recorder
// is switched on, also records a timed span per call.
//
// The engine is written against vfs.FS, so wrapping the filesystem is the
// one place where every byte the store moves can be seen from outside
// without touching the store. Counting mode costs a few atomic adds per
// call and allocates nothing; span mode is only entered in the
// benchmark's traced rounds.
package tracefs

import (
	"strings"
	"sync/atomic"

	"repro/internal/vfs"
)

// Kind classifies a file by what the engine keeps in it.
type Kind uint8

// The file kinds, in reporting order. KindOther collects names the
// classifier does not know; the unit test fails when the engine creates
// one, so a new file type cannot slip past the write-amplification split.
const (
	KindLog Kind = iota
	KindSST
	KindCLIdx
	KindManifest
	KindStore
	KindOther
	NumKinds
)

var kindNames = [NumKinds]string{"log", "sst", "clidx", "manifest", "store", "other"}

func (k Kind) String() string { return kindNames[k] }

// KindOf classifies a file name. Temporary names (MANIFEST.new,
// STORE.tmp) belong to the file they are renamed onto.
func KindOf(name string) Kind {
	switch {
	case strings.HasSuffix(name, ".log"):
		return KindLog
	case strings.HasSuffix(name, ".sst"):
		return KindSST
	case strings.HasSuffix(name, ".clidx"):
		return KindCLIdx
	case strings.HasPrefix(name, "MANIFEST"):
		return KindManifest
	case strings.HasPrefix(name, "STORE"):
		return KindStore
	}
	return KindOther
}

// kindCounters are one kind's live counters.
type kindCounters struct {
	writeBytes, writeOps atomic.Int64
	readBytes, readOps   atomic.Int64
	syncs                atomic.Int64
	creates, removes     atomic.Int64
}

// Counters accumulates the calls of every FS that shares it (one per
// store: the shards' filesystems all feed the same Counters).
type Counters struct {
	kinds [NumKinds]kindCounters
}

// KindStats is a plain copy of one kind's counters. The fields mirror
// vfs.Stats so the two can be compared directly.
type KindStats struct {
	BytesWritten, WriteOps int64
	BytesRead, ReadOps     int64
	Syncs                  int64
	FilesCreated           int64
	FilesRemoved           int64
}

func (s KindStats) add(o KindStats) KindStats {
	return KindStats{
		BytesWritten: s.BytesWritten + o.BytesWritten, WriteOps: s.WriteOps + o.WriteOps,
		BytesRead: s.BytesRead + o.BytesRead, ReadOps: s.ReadOps + o.ReadOps,
		Syncs: s.Syncs + o.Syncs, FilesCreated: s.FilesCreated + o.FilesCreated,
		FilesRemoved: s.FilesRemoved + o.FilesRemoved,
	}
}

func (s KindStats) sub(o KindStats) KindStats {
	return KindStats{
		BytesWritten: s.BytesWritten - o.BytesWritten, WriteOps: s.WriteOps - o.WriteOps,
		BytesRead: s.BytesRead - o.BytesRead, ReadOps: s.ReadOps - o.ReadOps,
		Syncs: s.Syncs - o.Syncs, FilesCreated: s.FilesCreated - o.FilesCreated,
		FilesRemoved: s.FilesRemoved - o.FilesRemoved,
	}
}

// Stats is a point-in-time copy of a Counters, indexed by Kind.
type Stats [NumKinds]KindStats

// Snapshot copies the counters (each read atomically; the set is not a
// fenced cut, so take it while the store is quiet or accept the skew).
func (c *Counters) Snapshot() Stats {
	var s Stats
	for k := range c.kinds {
		kc := &c.kinds[k]
		s[k] = KindStats{
			BytesWritten: kc.writeBytes.Load(), WriteOps: kc.writeOps.Load(),
			BytesRead: kc.readBytes.Load(), ReadOps: kc.readOps.Load(),
			Syncs: kc.syncs.Load(), FilesCreated: kc.creates.Load(),
			FilesRemoved: kc.removes.Load(),
		}
	}
	return s
}

// Sub returns s - earlier, counter-wise (a measurement window).
func (s Stats) Sub(earlier Stats) Stats {
	var out Stats
	for k := range s {
		out[k] = s[k].sub(earlier[k])
	}
	return out
}

// Total sums the kinds.
func (s Stats) Total() KindStats {
	var t KindStats
	for _, k := range s {
		t = t.add(k)
	}
	return t
}

// FS wraps a vfs.FS, charging every call to Counters and, while the
// Recorder is on, recording it as a span.
type FS struct {
	inner vfs.FS
	c     *Counters
	rec   *Recorder
}

// New wraps inner. rec may be nil (counting only).
func New(inner vfs.FS, c *Counters, rec *Recorder) *FS {
	return &FS{inner: inner, c: c, rec: rec}
}

// Create implements vfs.FS.
func (fs *FS) Create(name string) (vfs.File, error) {
	k := KindOf(name)
	tok := fs.rec.enterFS(opCreate, k, 0, nil, 0)
	f, err := fs.inner.Create(name)
	fs.rec.Exit(tok)
	if err != nil {
		return nil, err
	}
	fs.c.kinds[k].creates.Add(1)
	return &file{File: f, kc: &fs.c.kinds[k], rec: fs.rec, kind: k}, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(name string) (vfs.File, error) {
	k := KindOf(name)
	tok := fs.rec.enterFS(opOpen, k, 0, nil, 0)
	f, err := fs.inner.Open(name)
	fs.rec.Exit(tok)
	if err != nil {
		return nil, err
	}
	return &file{File: f, kc: &fs.c.kinds[k], rec: fs.rec, kind: k}, nil
}

// Remove implements vfs.FS.
func (fs *FS) Remove(name string) error {
	k := KindOf(name)
	tok := fs.rec.enterFS(opRemove, k, 0, nil, 0)
	err := fs.inner.Remove(name)
	fs.rec.Exit(tok)
	if err == nil {
		fs.c.kinds[k].removes.Add(1)
	}
	return err
}

// Rename implements vfs.FS.
func (fs *FS) Rename(oldname, newname string) error {
	tok := fs.rec.enterFS(opRename, KindOf(newname), 0, nil, 0)
	err := fs.inner.Rename(oldname, newname)
	fs.rec.Exit(tok)
	return err
}

// List implements vfs.FS.
func (fs *FS) List(prefix string) ([]string, error) { return fs.inner.List(prefix) }

// Exists implements vfs.FS.
func (fs *FS) Exists(name string) bool { return fs.inner.Exists(name) }

// ResidentBytes sums the sizes of the files currently on inner — the
// space the store occupies, unlinked files excluded.
func ResidentBytes(inner vfs.FS) (int64, error) {
	names, err := inner.List("")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		f, err := inner.Open(name)
		if err != nil {
			return 0, err
		}
		n, err := f.Size()
		f.Close()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// file wraps one handle. The embedded File supplies Close and Size.
type file struct {
	vfs.File
	kc   *kindCounters
	rec  *Recorder
	kind Kind
}

func (f *file) Write(p []byte) (int, error) {
	tok := f.rec.enterFS(opWrite, f.kind, len(p), nil, 0)
	n, err := f.File.Write(p)
	f.rec.Exit(tok)
	if err == nil {
		f.kc.writeBytes.Add(int64(n))
		f.kc.writeOps.Add(1)
	}
	return n, err
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	tok := f.rec.enterFS(opRead, f.kind, len(p), f, off)
	n, err := f.File.ReadAt(p, off)
	f.rec.Exit(tok)
	// A read at or past the end moves no bytes and is not a device
	// access (vfs.MemFS does not count it either).
	if n > 0 || err == nil {
		f.kc.readBytes.Add(int64(n))
		f.kc.readOps.Add(1)
	}
	return n, err
}

func (f *file) Sync() error {
	tok := f.rec.enterFS(opSync, f.kind, 0, nil, 0)
	err := f.File.Sync()
	f.rec.Exit(tok)
	if err == nil {
		f.kc.syncs.Add(1)
	}
	return err
}
