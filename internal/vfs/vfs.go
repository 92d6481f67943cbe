// Package vfs provides the filesystem abstraction used by the LSM engine.
//
// Two implementations are provided: MemFS, an in-memory filesystem with
// byte-accurate I/O accounting, an optional latency model and fault
// injection (used by experiments and tests), and OSFS, a thin wrapper over
// the real filesystem (used by cmd/triaddb and the examples that persist
// data).
//
// All engine I/O goes through this interface so that write amplification
// and read amplification can be measured exactly, independent of the
// underlying medium.
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound is returned when opening a file that does not exist.
var ErrNotFound = errors.New("vfs: file not found")

// ErrClosed is returned on operations against a closed file.
var ErrClosed = errors.New("vfs: file closed")

// File is the per-file handle interface. Writers append; readers use ReadAt
// so that concurrent reads need no seek state.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes buffered data to stable storage.
	Sync() error
	// Size reports the current length of the file in bytes.
	Size() (int64, error)
}

// FS is the filesystem interface the engine is written against.
type FS interface {
	// Create creates (or truncates) the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically renames a file.
	Rename(oldname, newname string) error
	// List returns the names of all files whose name starts with prefix,
	// in lexicographic order.
	List(prefix string) ([]string, error)
	// Exists reports whether the named file exists.
	Exists(name string) bool
}

// Stats holds cumulative I/O counters for a MemFS. All fields are managed
// with atomics and may be read concurrently with engine activity.
type Stats struct {
	BytesWritten atomic.Int64
	BytesRead    atomic.Int64
	WriteOps     atomic.Int64
	ReadOps      atomic.Int64
	Syncs        atomic.Int64
	FilesCreated atomic.Int64
	FilesRemoved atomic.Int64
}

// LatencyModel charges simulated time for I/O against a MemFS. A zero model
// charges nothing. Charges are busy-free: the goroutine sleeps, modelling a
// device with the given throughput and per-operation overhead.
//
// When Device is set, charges additionally serialize through it: a shared
// token-bucket of device time, so concurrent foreground and background I/O
// queue behind each other the way they do on one SSD. That contention —
// background flush/compaction bytes stealing device time from user
// operations — is exactly the effect the paper's §3 measures.
type LatencyModel struct {
	// PerOp is charged once per read/write/sync call.
	PerOp time.Duration
	// PerByte is charged per byte moved.
	PerByte time.Duration
	// Device, when non-nil, is the shared device the time is drawn from.
	Device *Device
}

func (m LatencyModel) charge(n int) {
	if m.PerOp == 0 && m.PerByte == 0 {
		return
	}
	d := m.PerOp + time.Duration(n)*m.PerByte
	if d <= 0 {
		return
	}
	if m.Device != nil {
		m.Device.Occupy(d)
		return
	}
	time.Sleep(d)
}

// Device models one storage device's serial service queue. Every charge
// reserves a slot of device time after all previously reserved time and
// sleeps until its slot completes, so N concurrent streams each see the
// device at 1/N of its speed.
type Device struct {
	mu    sync.Mutex
	avail time.Time
}

// sleepGranularity bounds how precisely Occupy sleeps: reservations whose
// end is closer than this return immediately (the queue position still
// advances, so aggregate device throughput is enforced exactly; only
// per-operation jitter is traded away). Sleeping for every microsecond
// charge would round each one up to the runtime's timer resolution and
// overstate the device by orders of magnitude.
const sleepGranularity = 200 * time.Microsecond

// Occupy reserves d of device time and blocks until the reservation ends.
func (dev *Device) Occupy(d time.Duration) {
	dev.mu.Lock()
	now := time.Now()
	if dev.avail.Before(now) {
		dev.avail = now
	}
	dev.avail = dev.avail.Add(d)
	end := dev.avail
	dev.mu.Unlock()
	if wait := time.Until(end); wait > sleepGranularity {
		time.Sleep(wait)
	}
}

// MemFS is an in-memory filesystem. It is safe for concurrent use.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memNode

	// Stats is updated on every operation.
	Stats Stats
	// Latency, if non-zero, charges simulated device time.
	Latency LatencyModel

	// failEvery, when > 0, makes every Nth write return an injected error.
	failEvery atomic.Int64
	writeSeq  atomic.Int64
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memNode)}
}

// ErrInjected is the error returned by fault-injected operations.
var ErrInjected = errors.New("vfs: injected fault")

// FailEveryNthWrite arranges for every nth write to fail with ErrInjected.
// n <= 0 disables injection.
func (fs *MemFS) FailEveryNthWrite(n int) { fs.failEvery.Store(int64(n)) }

// extentSize is the fixed length of every extent of a MemFS file but its
// last. It is the largest size the Go allocator serves from its
// small-object classes, and at most two extents meet in a 4 KiB block read.
const extentSize = 32 << 10

// memNode is one file's bytes as a list of extents: every extent but the
// last holds exactly extentSize bytes, so byte off lives in
// ext[off/extentSize] and an append copies only the new bytes — a commit
// log is written once, not recopied each time a growing slice doubles.
type memNode struct {
	mu   sync.RWMutex
	ext  [][]byte
	size int64
}

// write adds p to the end of the file. Caller holds mu.
func (n *memNode) write(p []byte) {
	n.size += int64(len(p))
	for len(p) > 0 {
		if len(n.ext) == 0 || len(n.ext[len(n.ext)-1]) == extentSize {
			n.ext = append(n.ext, make([]byte, 0, extentSize))
		}
		last := &n.ext[len(n.ext)-1]
		k := min(len(p), extentSize-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
}

// readAt copies the file's bytes from off into p and returns how many
// there were. Caller holds mu (shared) and has checked off < size.
func (n *memNode) readAt(p []byte, off int64) int {
	read := 0
	for i := int(off / extentSize); read < len(p) && i < len(n.ext); i++ {
		read += copy(p[read:], n.ext[i][(off+int64(read))%extentSize:])
	}
	return read
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	n := &memNode{}
	fs.files[name] = n
	fs.mu.Unlock()
	fs.Stats.FilesCreated.Add(1)
	return &memFile{fs: fs, node: n, writable: true}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.RLock()
	n, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: ErrNotFound}
	}
	return &memFile{fs: fs, node: n}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: ErrNotFound}
	}
	delete(fs.files, name)
	fs.Stats.FilesRemoved.Add(1)
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: ErrNotFound}
	}
	delete(fs.files, oldname)
	fs.files[newname] = n
	return nil
}

// List implements FS.
func (fs *MemFS) List(prefix string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for name := range fs.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Exists implements FS.
func (fs *MemFS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

type memFile struct {
	fs       *MemFS
	node     *memNode
	writable bool
	closed   bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if fe := f.fs.failEvery.Load(); fe > 0 {
		if f.fs.writeSeq.Add(1)%fe == 0 {
			return 0, ErrInjected
		}
	}
	f.node.mu.Lock()
	f.node.write(p)
	f.node.mu.Unlock()
	f.fs.Stats.BytesWritten.Add(int64(len(p)))
	f.fs.Stats.WriteOps.Add(1)
	f.fs.Latency.charge(len(p))
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= f.node.size {
		return 0, io.EOF
	}
	n := f.node.readAt(p, off)
	f.fs.Stats.BytesRead.Add(int64(n))
	f.fs.Stats.ReadOps.Add(1)
	f.fs.Latency.charge(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Close() error {
	f.closed = true
	return nil
}

func (f *memFile) Sync() error {
	if f.closed {
		return ErrClosed
	}
	f.fs.Stats.Syncs.Add(1)
	f.fs.Latency.charge(0)
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return f.node.size, nil
}

// OSFS implements FS on top of the operating system filesystem, rooted at
// Dir. It performs no accounting; use it for durable stores.
type OSFS struct {
	// Dir is the root directory; all names are joined to it.
	Dir string
}

// NewOSFS returns an OSFS rooted at dir, creating dir if needed.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &OSFS{Dir: dir}, nil
}

func (fs *OSFS) path(name string) string { return filepath.Join(fs.Dir, name) }

// Create implements FS.
func (fs *OSFS) Create(name string) (File, error) {
	f, err := os.Create(fs.path(name))
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (fs *OSFS) Open(name string) (File, error) {
	f, err := os.Open(fs.path(name))
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (fs *OSFS) Remove(name string) error { return os.Remove(fs.path(name)) }

// Rename implements FS.
func (fs *OSFS) Rename(oldname, newname string) error {
	return os.Rename(fs.path(oldname), fs.path(newname))
}

// List implements FS.
func (fs *OSFS) List(prefix string) ([]string, error) {
	entries, err := os.ReadDir(fs.Dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Exists implements FS.
func (fs *OSFS) Exists(name string) bool {
	_, err := os.Stat(fs.path(name))
	return err == nil
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
