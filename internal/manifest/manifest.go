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

	"repro/internal/hll"
	"repro/internal/vfs"
)

// TableKind discriminates the table formats.
type TableKind uint8

const (
	// KindSST is a classic sorted table.
	KindSST TableKind = 1
	// KindCLSST is a TRIAD-LOG CL-SSTable (index + commit-log pair).
	KindCLSST TableKind = 2
	// KindCLFold is a CL-SSTable over several commit logs, written by a
	// fold of L0's CL-SSTables. It has a kind of its own so that a binary
	// that predates folds fails to open it instead of reading its offsets
	// against one log.
	KindCLFold TableKind = 3
)

// clFoldJSON is how the journal writes KindCLFold. The other kinds are
// numbers; this one is a string, so that a binary that predates folds
// fails to decode the edit — and refuses the store — before it rewrites
// the journal without the fields it does not know, a fold's logs among
// them.
const clFoldJSON = `"cl-fold"`

// MarshalJSON implements json.Marshaler.
func (k TableKind) MarshalJSON() ([]byte, error) {
	if k == KindCLFold {
		return []byte(clFoldJSON), nil
	}
	return json.Marshal(uint8(k))
}

// UnmarshalJSON implements json.Unmarshaler.
func (k *TableKind) UnmarshalJSON(b []byte) error {
	if string(b) == clFoldJSON {
		*k = KindCLFold
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*k = TableKind(n)
	return nil
}

// FileMeta describes one table file.
type FileMeta struct {
	ID         uint64    `json:"id"`
	Kind       TableKind `json:"kind"`
	Level      int       `json:"level"`
	Size       int64     `json:"size"`
	NumEntries uint64    `json:"entries"`
	Smallest   []byte    `json:"smallest"`
	Largest    []byte    `json:"largest"`
	// LogID is the commit log a KindCLSST table references (zero otherwise).
	LogID uint64 `json:"log_id,omitempty"`
	// LogIDs are the commit logs a KindCLFold table references.
	LogIDs []uint64 `json:"log_ids,omitempty"`
	// LogBytes is the size of the commit logs a CL-SSTable pins.
	LogBytes int64 `json:"log_bytes,omitempty"`
	// MaxSeq orders L0 (see Version.Apply): for a flushed table, the
	// sequence the store had reached when its memtable was sealed, at or
	// above every entry of it and below every entry written after; for a
	// fold, the largest over its inputs and entries. Zero for tables
	// written before L0 was ordered by it, and below L0.
	MaxSeq uint64 `json:"max_seq,omitempty"`
	// FoldBytes is the index bytes written by the folds that made this
	// table, its inputs' included: the rent L0 has paid since it was last
	// merged.
	FoldBytes int64 `json:"fold_bytes,omitempty"`
	// Sketch is the HyperLogLog sketch of an L0 table's keys, which
	// TRIAD-DISK's overlap ratio reads (compaction.Picker): the engine
	// makes it as it writes the table, or from the table's keys as it
	// recovers the tree. It lives in memory only, nil elsewhere.
	Sketch *hll.Sketch `json:"-"`
}

// Logs returns the commit logs the table pins: none unless it is a
// CL-SSTable.
func (f *FileMeta) Logs() []uint64 {
	switch f.Kind {
	case KindCLSST:
		return []uint64{f.LogID}
	case KindCLFold:
		return f.LogIDs
	}
	return nil
}

// newerL0 reports whether L0 file a holds newer data than b, the order
// every L0 read and merge relies on: a key's first hit in L0 is its newest
// version. File ids do not give it, since a fold allocates its id after a
// flush that installs later with newer data may have allocated its own.
// Sealing order does: by MaxSeq, and between a fold and a flush sealed
// with no write since the fold's newest input, the flush (a fold only
// takes tables already in L0). Tables without a MaxSeq, written before it
// existed, are older than every table with one and ordered by id, as
// flushes alone were.
func newerL0(a, b *FileMeta) bool {
	if a.MaxSeq != 0 && b.MaxSeq != 0 {
		if a.MaxSeq != b.MaxSeq {
			return a.MaxSeq > b.MaxSeq
		}
		if af, bf := a.Kind == KindCLFold, b.Kind == KindCLFold; af != bf {
			return bf
		}
	}
	return a.ID > b.ID
}

// Edit is one atomic change to the tree: files added and files deleted.
type Edit struct {
	Added   []FileMeta `json:"added,omitempty"`
	Deleted []uint64   `json:"deleted,omitempty"`
	// NextFileID persists the file-number allocator across restarts.
	NextFileID uint64 `json:"next_file_id,omitempty"`
	// LastSeq persists the sequence-number allocator.
	LastSeq uint64 `json:"last_seq,omitempty"`
	// LogNumber is LevelDB's log_number: the oldest commit log recovery
	// may replay. A flush records it; every log below it is pinned by a
	// table or was retired, so an unpinned one still on disk is one a
	// crash kept from being removed, and replaying it would put
	// superseded values over newer tables. Zero — journals written
	// before it, which older binaries also ignore — replays every
	// unpinned log.
	LogNumber uint64 `json:"log_number,omitempty"`
}

// Version is an immutable snapshot of the level structure. Levels[0] is
// ordered newest-first (overlapping ranges allowed); deeper levels are
// ordered by Smallest with disjoint ranges.
type Version struct {
	Levels [][]*FileMeta
	// sizes[l] is the byte total of Levels[l], and sstBytes and sstEntries
	// the byte and entry totals of the classic tables over all levels, all
	// maintained by Apply: level scores, targets, debt, stats and the
	// bytes a CL-SSTable will take up as a sorted table are read on every
	// pick, which must not cost a walk over the tree's files.
	sizes                [NumLevels]int64
	sstBytes, sstEntries int64
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
	nv.sstBytes, nv.sstEntries = v.sstBytes, v.sstEntries
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
					nv.count(f, -1)
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
		nv.count(&fm, 1)
	}
	// Keep L0 newest-first and deeper levels sorted by smallest key.
	sort.Slice(nv.Levels[0], func(i, j int) bool {
		return newerL0(nv.Levels[0][i], nv.Levels[0][j])
	})
	for l := 1; l < NumLevels; l++ {
		sort.Slice(nv.Levels[l], func(i, j int) bool {
			return bytes.Compare(nv.Levels[l][i].Smallest, nv.Levels[l][j].Smallest) < 0
		})
	}
	return nv, nil
}

// count adds (sign 1) or removes (sign -1) f in the running totals.
func (v *Version) count(f *FileMeta, sign int64) {
	v.sizes[f.Level] += sign * f.Size
	if f.Kind == KindSST {
		v.sstBytes += sign * f.Size
		v.sstEntries += sign * int64(f.NumEntries)
	}
}

func keys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckInvariants verifies the level structure: L0 must be newest-first,
// deeper levels must hold disjoint, sorted ranges, and every running total
// must equal the sum over its files. Used by tests and the engine's
// paranoid mode.
func (v *Version) CheckInvariants() error {
	var sstBytes, sstEntries int64
	for l, files := range v.Levels {
		var sum int64
		for _, f := range files {
			sum += f.Size
			if f.Kind == KindSST {
				sstBytes += f.Size
				sstEntries += int64(f.NumEntries)
			}
		}
		if sum != v.sizes[l] {
			return fmt.Errorf("L%d: byte total %d, files sum to %d", l, v.sizes[l], sum)
		}
	}
	if sstBytes != v.sstBytes || sstEntries != v.sstEntries {
		return fmt.Errorf("sorted tables: totals %d B / %d entries, files sum to %d B / %d entries",
			v.sstBytes, v.sstEntries, sstBytes, sstEntries)
	}
	for i := 1; i < len(v.Levels[0]); i++ {
		if newerL0(v.Levels[0][i], v.Levels[0][i-1]) {
			return fmt.Errorf("L0 file %d is newer than file %d before it", v.Levels[0][i].ID, v.Levels[0][i-1].ID)
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

// SSTTotals returns the bytes and entries of the classic sorted tables
// over all levels.
func (v *Version) SSTTotals() (bytes, entries int64) { return v.sstBytes, v.sstEntries }

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

// rollFactor bounds the journal: an edit that finds it holding more than
// rollFactor times the bytes of the snapshot it started from first rolls
// it into a fresh snapshot (Log.roll). The journal so stays within that
// factor of the tree's own encoding, and rewriting it costs at most
// 1/(rollFactor-1) of the bytes journaled.
const rollFactor = 4

// Log journals version edits and replays them at startup. It keeps the
// tree the journal describes, so that it can rewrite the journal as one
// snapshot of it.
type Log struct {
	mu    sync.Mutex
	fs    vfs.FS
	f     vfs.File
	w     *bufio.Writer
	v     *Version
	state Edit // NextFileID, LastSeq and LogNumber as journaled
	// size is the journal's bytes, snapSize those of the snapshot it
	// starts with.
	size, snapSize int64
	// err is the first failed write. The journal may hold an edit that v
	// lacks, so it takes no further edit: one computed without it,
	// journaled after it, would not replay.
	err error
}

// OpenLog opens (appending) or creates the manifest log.
//
// Appending to an existing log is modelled by replaying the old log into a
// fresh file: vfs.FS has create/truncate semantics only, and rewriting also
// compacts the journal, as every roll does (Log.roll).
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
	l := &Log{fs: fs, v: v, state: state}
	if err := l.roll(); err != nil {
		return nil, nil, Edit{}, err
	}
	return l, v, state, nil
}

// roll writes the tree as a single snapshot edit to a fresh journal, makes
// it durable and renames it over the old one. A crash before the rename
// leaves the old journal whole; the next roll truncates the orphan.
func (l *Log) roll() error {
	f, err := l.fs.Create(logName + ".new")
	if err != nil {
		return err
	}
	snap := l.state
	for _, files := range l.v.Levels {
		for _, fm := range files {
			snap.Added = append(snap.Added, *fm)
		}
	}
	w := bufio.NewWriter(f)
	n, err := writeEdit(w, f, snap)
	if err == nil {
		err = l.fs.Rename(logName+".new", logName)
	}
	if err != nil {
		f.Close()
		return err
	}
	if l.f != nil {
		_ = l.f.Close() // the replaced journal; nothing in it is needed
	}
	l.f, l.w = f, w
	l.size, l.snapSize = n, n
	return nil
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
		state.advance(e)
	}
	return v, state, nil
}

// advance raises the allocators and the log number s journals to e's
// where e's are higher. The tree's files are not s's to keep.
func (s *Edit) advance(e Edit) {
	s.NextFileID = max(s.NextFileID, e.NextFileID)
	s.LastSeq = max(s.LastSeq, e.LastSeq)
	s.LogNumber = max(s.LogNumber, e.LogNumber)
}

// Append journals one edit durably, first rolling the journal into a
// snapshot if it has outgrown its bound. An edit that the tree as
// journaled cannot take (it deletes a file not in it) is refused, and so
// is every edit after one that failed to be written.
func (l *Log) Append(e Edit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	nv, err := l.v.Apply(e)
	if err != nil {
		return err
	}
	if l.size > rollFactor*l.snapSize {
		err = l.roll()
	}
	var n int64
	if err == nil {
		n, err = writeEdit(l.w, l.f, e)
	}
	if err != nil {
		l.err = err
		return err
	}
	l.size += n
	l.v = nv
	l.state.advance(e)
	return nil
}

// writeEdit appends e to the journal behind w (writing f) and syncs it,
// returning the bytes written.
func writeEdit(w *bufio.Writer, f vfs.File, e Edit) (int64, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return int64(len(b) + 1), f.Sync()
}

// Close closes the journal, even when what it buffered fails to reach it.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
