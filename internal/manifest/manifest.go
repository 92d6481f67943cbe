// Package manifest tracks the shape of the LSM disk component: which table
// files live on which level, their key ranges and sizes. Changes (flushes,
// compactions) are applied as atomic version edits and journaled to a
// manifest log so the tree can be reconstructed after a crash, mirroring
// the LevelDB/RocksDB MANIFEST design the paper's substrate uses.
package manifest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/vfs"
)

// TableKind discriminates the two L0 table formats.
type TableKind uint8

const (
	// KindSST is a classic sorted table.
	KindSST TableKind = 1
	// KindCLSST is a TRIAD-LOG CL-SSTable (index + commit-log pair).
	KindCLSST TableKind = 2
)

// FileMeta describes one table file.
type FileMeta struct {
	ID         uint64    `json:"id"`
	Kind       TableKind `json:"kind"`
	Level      int       `json:"level"`
	Size       int64     `json:"size"`
	NumEntries uint64    `json:"entries"`
	Smallest   []byte    `json:"smallest"`
	Largest    []byte    `json:"largest"`
	// LogID is the commit log a CL-SSTable references (zero otherwise).
	LogID uint64 `json:"log_id,omitempty"`
}

// Edit is one atomic change to the tree: files added and files deleted.
type Edit struct {
	Added   []FileMeta `json:"added,omitempty"`
	Deleted []uint64   `json:"deleted,omitempty"`
	// NextFileID persists the file-number allocator across restarts.
	NextFileID uint64 `json:"next_file_id,omitempty"`
	// LastSeq persists the sequence-number allocator.
	LastSeq uint64 `json:"last_seq,omitempty"`
}

// Version is an immutable snapshot of the level structure. Levels[0] is
// ordered newest-first (overlapping ranges allowed); deeper levels are
// ordered by Smallest with disjoint ranges.
type Version struct {
	Levels [][]*FileMeta
	// sizes[l] is the byte total of Levels[l], maintained by Apply: level
	// scores, targets, debt and stats read every level's size on every
	// pick, which must not cost a walk over the level's files.
	sizes [NumLevels]int64
}

// NumLevels is the fixed depth of the tree (L0..L6), matching RocksDB's
// default of 7 levels.
const NumLevels = 7

// NewVersion returns an empty version.
func NewVersion() *Version {
	return &Version{Levels: make([][]*FileMeta, NumLevels)}
}

// Clone returns a shallow copy (FileMeta values are immutable once added).
func (v *Version) Clone() *Version {
	nv := NewVersion()
	for i := range v.Levels {
		nv.Levels[i] = append([]*FileMeta(nil), v.Levels[i]...)
	}
	nv.sizes = v.sizes
	return nv
}

// Apply returns a new version with the edit applied.
func (v *Version) Apply(e Edit) (*Version, error) {
	nv := v.Clone()
	if len(e.Deleted) > 0 {
		del := make(map[uint64]bool, len(e.Deleted))
		for _, id := range e.Deleted {
			del[id] = true
		}
		for l := range nv.Levels {
			keep := nv.Levels[l][:0:0]
			for _, f := range nv.Levels[l] {
				if !del[f.ID] {
					keep = append(keep, f)
				} else {
					delete(del, f.ID)
					nv.sizes[l] -= f.Size
				}
			}
			nv.Levels[l] = keep
		}
		if len(del) > 0 {
			return nil, fmt.Errorf("manifest: edit deletes unknown files %v", keys(del))
		}
	}
	for i := range e.Added {
		f := e.Added[i]
		if f.Level < 0 || f.Level >= NumLevels {
			return nil, fmt.Errorf("manifest: level %d out of range", f.Level)
		}
		fm := f
		nv.Levels[f.Level] = append(nv.Levels[f.Level], &fm)
		nv.sizes[f.Level] += f.Size
	}
	// Keep L0 newest-first (higher IDs are newer) and deeper levels
	// sorted by smallest key.
	sort.Slice(nv.Levels[0], func(i, j int) bool {
		return nv.Levels[0][i].ID > nv.Levels[0][j].ID
	})
	for l := 1; l < NumLevels; l++ {
		sort.Slice(nv.Levels[l], func(i, j int) bool {
			return bytes.Compare(nv.Levels[l][i].Smallest, nv.Levels[l][j].Smallest) < 0
		})
	}
	return nv, nil
}

func keys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckInvariants verifies the level structure: deeper levels must hold
// disjoint, sorted ranges, and every level's running byte total must equal
// the sum over its files. Used by tests and the engine's paranoid mode.
func (v *Version) CheckInvariants() error {
	for l, files := range v.Levels {
		var sum int64
		for _, f := range files {
			sum += f.Size
		}
		if sum != v.sizes[l] {
			return fmt.Errorf("L%d: byte total %d, files sum to %d", l, v.sizes[l], sum)
		}
	}
	for l := 1; l < len(v.Levels); l++ {
		files := v.Levels[l]
		for i := 0; i < len(files); i++ {
			if bytes.Compare(files[i].Smallest, files[i].Largest) > 0 {
				return fmt.Errorf("L%d file %d: smallest > largest", l, files[i].ID)
			}
			if i > 0 && bytes.Compare(files[i-1].Largest, files[i].Smallest) >= 0 {
				return fmt.Errorf("L%d files %d,%d overlap", l, files[i-1].ID, files[i].ID)
			}
		}
	}
	return nil
}

// LevelSize returns the total byte size of level l.
func (v *Version) LevelSize(l int) int64 { return v.sizes[l] }

// firstEndingAtOrAfter returns the index of the first file in the sorted,
// disjoint level files whose Largest is >= key (len(files) if none).
func firstEndingAtOrAfter(files []*FileMeta, key []byte) int {
	lo, hi := 0, len(files)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(files[mid].Largest, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Find returns the one file of level l (l >= 1, where ranges are sorted
// and disjoint) whose key range contains key, or nil when key falls in a
// gap, before the first file or after the last. It binary-searches and
// does not allocate — every Get pays it once per level.
func (v *Version) Find(l int, key []byte) *FileMeta {
	files := v.Levels[l]
	i := firstEndingAtOrAfter(files, key)
	if i < len(files) && bytes.Compare(files[i].Smallest, key) <= 0 {
		return files[i]
	}
	return nil
}

// Overlap returns the files of level l (l >= 1) intersecting [lo, hi], in
// key order, found by binary search. The result aliases the version's
// (immutable) level slice, capped so an append cannot write through it.
func (v *Version) Overlap(l int, lo, hi []byte) []*FileMeta {
	files := v.Levels[l]
	i := firstEndingAtOrAfter(files, lo)
	// First file at or after i that starts past hi.
	a, b := i, len(files)
	for a < b {
		mid := int(uint(a+b) >> 1)
		if bytes.Compare(files[mid].Smallest, hi) <= 0 {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return files[i:a:a]
}

const logName = "MANIFEST"

// Log journals version edits and replays them at startup.
type Log struct {
	mu sync.Mutex
	fs vfs.FS
	f  vfs.File
	w  *bufio.Writer
}

// OpenLog opens (appending) or creates the manifest log.
//
// Appending to an existing log is modelled by replaying the old log into a
// fresh file: vfs.FS has create/truncate semantics only, and rewriting also
// compacts the journal, which is what production stores periodically do
// anyway.
func OpenLog(fs vfs.FS) (*Log, *Version, Edit, error) {
	state := Edit{}
	v := NewVersion()
	if fs.Exists(logName) {
		var err error
		v, state, err = replay(fs)
		if err != nil {
			return nil, nil, Edit{}, err
		}
	}
	f, err := fs.Create(logName + ".new")
	if err != nil {
		return nil, nil, Edit{}, err
	}
	l := &Log{fs: fs, f: f, w: bufio.NewWriter(f)}
	// Re-journal the recovered state as a single snapshot edit.
	snap := Edit{NextFileID: state.NextFileID, LastSeq: state.LastSeq}
	for _, files := range v.Levels {
		for _, fm := range files {
			snap.Added = append(snap.Added, *fm)
		}
	}
	if err := l.append(snap); err != nil {
		return nil, nil, Edit{}, err
	}
	if err := fs.Rename(logName+".new", logName); err != nil {
		return nil, nil, Edit{}, err
	}
	return l, v, state, nil
}

func replay(fs vfs.FS) (*Version, Edit, error) {
	f, err := fs.Open(logName)
	if err != nil {
		return nil, Edit{}, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, Edit{}, err
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			return nil, Edit{}, err
		}
	}
	v := NewVersion()
	state := Edit{}
	dec := json.NewDecoder(bytes.NewReader(buf))
	for {
		var e Edit
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // torn tail tolerated, like the WAL
			}
			var syn *json.SyntaxError
			if errors.As(err, &syn) {
				break
			}
			return nil, Edit{}, err
		}
		nv, err := v.Apply(e)
		if err != nil {
			return nil, Edit{}, err
		}
		v = nv
		if e.NextFileID > state.NextFileID {
			state.NextFileID = e.NextFileID
		}
		if e.LastSeq > state.LastSeq {
			state.LastSeq = e.LastSeq
		}
	}
	return v, state, nil
}

// Append journals one edit durably.
func (l *Log) Append(e Edit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(e)
}

func (l *Log) append(e Edit) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := l.w.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the journal.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Close()
}
