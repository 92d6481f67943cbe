// Package vfs provides the filesystem abstraction used by the LSM engine.
//
// Two implementations are provided: MemFS, an in-memory filesystem with
// byte-accurate I/O accounting, one way to intercept its calls (SetHooks:
// fail, park or charge a call, or image the state it left) and two crash
// images (Clone, what a process crash leaves; Crash, what a power cut
// leaves), used by experiments and tests; and OSFS, a thin wrapper over the
// real filesystem (used by cmd/triaddb and the examples that persist data).
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

// LatencyModel charges simulated time for I/O against a MemFS whose Before
// hook is its Before method. A zero model charges nothing. Charges are
// busy-free: the goroutine sleeps, modelling a device with the given
// throughput and per-operation overhead.
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

// Before charges op's device time: PerOp plus PerByte for each requested
// byte of a Write or ReadAt, PerOp for a Sync, nothing for other calls. It
// never fails a call.
func (m LatencyModel) Before(op Op) error {
	if op.Kind != OpWrite && op.Kind != OpReadAt && op.Kind != OpSync {
		return nil
	}
	d := m.PerOp + time.Duration(op.N)*m.PerByte
	switch {
	case d <= 0:
	case m.Device != nil:
		m.Device.Occupy(d)
	default:
		time.Sleep(d)
	}
	return nil
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

	hooks atomic.Pointer[Hooks]
	// step runs each call with its After as one step while After is set.
	step sync.Mutex
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memNode)}
}

// ErrInjected is the error a Before hook returns to fail a call.
var ErrInjected = errors.New("vfs: injected fault")

// OpKind is the kind of a MemFS call its hooks see. List, Exists and Size
// are not intercepted.
type OpKind int

const (
	OpCreate OpKind = iota
	OpOpen
	OpWrite
	OpReadAt
	OpSync
	OpClose // a handle's first Close only
	OpRemove
	OpRename
)

func (k OpKind) String() string {
	return [...]string{"create", "open", "write", "readat", "sync", "close", "remove", "rename"}[k]
}

// Op is one MemFS call. Name is the file it is on (a handle's, the name it
// was created or opened under; a Rename's old name), and N the bytes a
// Write or ReadAt asks for in Before and moved in After.
type Op struct {
	Kind OpKind
	Name string
	N    int
}

// Hooks intercept the calls of a MemFS.
type Hooks struct {
	// Before, if set, runs before each call, outside every lock of the
	// MemFS. It may block, which parks the call. A non-nil error fails the
	// call with that error, leaving the files and Stats as they were.
	Before func(Op) error
	// After, if set, runs once a call has taken effect. While After is
	// set, each call and its After run as one step against every other
	// call, so a Clone taken in After is exactly the state the call left.
	// After must not make an intercepted call on the same MemFS.
	After func(Op)
}

// SetHooks replaces fs's hooks; the zero Hooks removes them.
func (fs *MemFS) SetHooks(h Hooks) { fs.hooks.Store(&h) }

// do runs call as op under fs's hooks. call returns the bytes it moved.
func (fs *MemFS) do(op Op, call func() (int, error)) (int, error) {
	h := fs.hooks.Load()
	if h == nil {
		return call()
	}
	if h.Before != nil {
		if err := h.Before(op); err != nil {
			return 0, err
		}
	}
	if h.After == nil {
		return call()
	}
	fs.step.Lock()
	defer fs.step.Unlock()
	n, err := call()
	if err == nil || err == io.EOF && n > 0 {
		op.N = n
		h.After(op)
	}
	return n, err
}

// Clone returns a copy of every file in fs, taken under fs's locks, with
// no hooks and zero Stats: what a process crash leaves. Each file keeps
// its length at its last Sync, so a Crash of the copy is a Crash of fs.
func (fs *MemFS) Clone() *MemFS { return fs.clone(false) }

// Crash returns what a power cut leaves: a Clone with every file cut to
// its length at its last Sync (0 if it never synced). Directory entries
// stand as they are: OSFS syncs the directory on Create and Rename, and a
// Remove a power cut undoes is not modelled.
func (fs *MemFS) Crash() *MemFS { return fs.clone(true) }

func (fs *MemFS) clone(cut bool) *MemFS {
	out := NewMemFS()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for name, n := range fs.files {
		c := &memNode{}
		n.mu.RLock()
		keep := n.size
		if cut {
			keep = n.synced
		}
		for _, e := range n.ext {
			k := min(int64(len(e)), keep)
			c.write(e[:k])
			keep -= k
		}
		c.synced = n.synced
		n.mu.RUnlock()
		out.files[name] = c
	}
	return out
}

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
	// synced is size at the file's last Sync: what a power cut keeps.
	synced int64
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
func (fs *MemFS) Create(name string) (f File, err error) {
	_, err = fs.do(Op{Kind: OpCreate, Name: name}, func() (int, error) {
		n := &memNode{}
		fs.mu.Lock()
		fs.files[name] = n
		fs.mu.Unlock()
		fs.Stats.FilesCreated.Add(1)
		f = &memFile{fs: fs, node: n, name: name}
		return 0, nil
	})
	return f, err
}

// Open implements FS.
func (fs *MemFS) Open(name string) (f File, err error) {
	_, err = fs.do(Op{Kind: OpOpen, Name: name}, func() (int, error) {
		fs.mu.RLock()
		n, ok := fs.files[name]
		fs.mu.RUnlock()
		if !ok {
			return 0, &os.PathError{Op: "open", Path: name, Err: ErrNotFound}
		}
		f = &memFile{fs: fs, node: n, name: name}
		return 0, nil
	})
	return f, err
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	_, err := fs.do(Op{Kind: OpRemove, Name: name}, func() (int, error) {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if _, ok := fs.files[name]; !ok {
			return 0, &os.PathError{Op: "remove", Path: name, Err: ErrNotFound}
		}
		delete(fs.files, name)
		fs.Stats.FilesRemoved.Add(1)
		return 0, nil
	})
	return err
}

// Rename implements FS.
func (fs *MemFS) Rename(oldname, newname string) error {
	_, err := fs.do(Op{Kind: OpRename, Name: oldname}, func() (int, error) {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		n, ok := fs.files[oldname]
		if !ok {
			return 0, &os.PathError{Op: "rename", Path: oldname, Err: ErrNotFound}
		}
		delete(fs.files, oldname)
		fs.files[newname] = n
		return 0, nil
	})
	return err
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
	fs     *MemFS
	node   *memNode
	name   string
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	return f.fs.do(Op{Kind: OpWrite, Name: f.name, N: len(p)}, func() (int, error) {
		f.node.mu.Lock()
		f.node.write(p)
		f.node.mu.Unlock()
		f.fs.Stats.BytesWritten.Add(int64(len(p)))
		f.fs.Stats.WriteOps.Add(1)
		return len(p), nil
	})
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	return f.fs.do(Op{Kind: OpReadAt, Name: f.name, N: len(p)}, func() (int, error) {
		f.node.mu.RLock()
		defer f.node.mu.RUnlock()
		if off >= f.node.size {
			return 0, io.EOF
		}
		n := f.node.readAt(p, off)
		f.fs.Stats.BytesRead.Add(int64(n))
		f.fs.Stats.ReadOps.Add(1)
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	})
}

func (f *memFile) Close() error {
	if f.closed {
		return nil
	}
	_, err := f.fs.do(Op{Kind: OpClose, Name: f.name}, func() (int, error) {
		f.closed = true
		return 0, nil
	})
	return err
}

func (f *memFile) Sync() error {
	if f.closed {
		return ErrClosed
	}
	_, err := f.fs.do(Op{Kind: OpSync, Name: f.name}, func() (int, error) {
		f.node.mu.Lock()
		f.node.synced = f.node.size
		f.node.mu.Unlock()
		f.fs.Stats.Syncs.Add(1)
		return 0, nil
	})
	return err
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

// Create implements FS. It syncs the directory, so that the new entry
// survives a power cut.
func (fs *OSFS) Create(name string) (File, error) {
	f, err := os.Create(fs.path(name))
	if err != nil {
		return nil, err
	}
	if err := fs.syncDir(); err != nil {
		f.Close()
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

// Rename implements FS. It syncs the directory, as Create does.
func (fs *OSFS) Rename(oldname, newname string) error {
	if err := os.Rename(fs.path(oldname), fs.path(newname)); err != nil {
		return err
	}
	return fs.syncDir()
}

// syncDir makes Dir's entries durable. Remove does not call it: recovery
// deletes whatever a lost removal leaves behind.
func (fs *OSFS) syncDir() error {
	d, err := os.Open(fs.Dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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
