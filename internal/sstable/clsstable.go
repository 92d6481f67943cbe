package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/hll"
	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// CL-SSTable (paper §4.3, Figure 6): the sealed commit log is adopted as
// the value store of an L0 table, and flushing writes only a sorted
// (key → log offset) index. The index reuses the classic table container —
// blocks, Bloom filter, HLL sketch, footer — with the 8-byte log offset
// stored in the entry's value slot, so the whole format stack is shared.
// The paper's example keeps exactly this pair: for each key, the memtable
// value plus the CL name and offset of its most recent update.

// CLWriter builds the index file of a CL-SSTable over log file logID.
type CLWriter struct {
	inner *Writer
	logID uint64
}

// NewCLWriter creates CL-SSTable index file id referencing log logID.
func NewCLWriter(fs vfs.FS, id, logID uint64, blockSize int) (*CLWriter, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	f, err := fs.Create(CLIndexFileName(id))
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, id: id, blockSize: blockSize, sketch: mustSketch()}
	w.props.logID = logID
	return &CLWriter{inner: w, logID: logID}, nil
}

// Add records that key's most recent update (with the given seq and kind)
// lives at byte offset off in the log. Keys must be strictly ascending.
func (w *CLWriter) Add(key []byte, seq uint64, kind base.Kind, off int64) error {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(off))
	return w.inner.Add(base.Entry{Key: key, Value: v[:], Seq: seq, Kind: kind})
}

// NumEntries reports entries added so far.
func (w *CLWriter) NumEntries() uint64 { return w.inner.NumEntries() }

// Finish completes the index and returns the bytes written — the only
// bytes a TRIAD-LOG flush costs.
func (w *CLWriter) Finish() (int64, error) { return w.inner.Finish() }

// Abort removes a partially written index.
func (w *CLWriter) Abort(fs vfs.FS) {
	if !w.inner.closed {
		w.inner.closed = true
		w.inner.f.Close()
	}
	_ = fs.Remove(CLIndexFileName(w.inner.id))
}

func mustSketch() *hll.Sketch { return hll.MustNew(hll.DefaultPrecision) }

// CLReader reads a CL-SSTable: the index plus the shared log file.
type CLReader struct {
	idx *Reader
	log vfs.File
}

var _ Table = (*CLReader)(nil)

// OpenCL opens CL-SSTable id in fs with no block cache.
func OpenCL(fs vfs.FS, id uint64) (*CLReader, error) {
	return OpenCLWithCache(fs, id, nil)
}

// OpenCLWithCache opens CL-SSTable id in fs. The log file it references
// must still exist; the engine keeps it alive until the table is
// compacted away. Index blocks are served through the (possibly nil)
// block-cache handle; log records are not cached.
func OpenCLWithCache(fs vfs.FS, id uint64, cache *Handle) (*CLReader, error) {
	f, err := fs.Open(CLIndexFileName(id))
	if err != nil {
		return nil, err
	}
	idx := &Reader{f: f, id: id, cache: cache}
	if err := idx.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("cl-sstable %d: %w", id, err)
	}
	log, err := fs.Open(wal.FileName(idx.props.logID))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("cl-sstable %d: open log %d: %w", id, idx.props.logID, err)
	}
	return &CLReader{idx: idx, log: log}, nil
}

// LogID returns the commit-log file this table's offsets point into.
func (r *CLReader) LogID() uint64 { return r.idx.props.logID }

// ID implements Table.
func (r *CLReader) ID() uint64 { return r.idx.id }

// Smallest implements Table.
func (r *CLReader) Smallest() []byte { return r.idx.props.smallest }

// Largest implements Table.
func (r *CLReader) Largest() []byte { return r.idx.props.largest }

// NumEntries implements Table.
func (r *CLReader) NumEntries() uint64 { return r.idx.props.numEntries }

// FileSize implements Table. It reports the index file size only: the log
// bytes were charged to logging when first appended (avoiding that second
// write is TRIAD-LOG's contribution).
func (r *CLReader) FileSize() int64 { return r.idx.size }

// Sketch implements Table.
func (r *CLReader) Sketch() *hll.Sketch { return r.idx.sketch }

// BlockSeparators returns the last key of every index block, ascending
// (see Reader.BlockSeparators) — the key distribution of the index is
// the key distribution of the table.
func (r *CLReader) BlockSeparators() [][]byte { return r.idx.BlockSeparators() }

// Close implements Table.
func (r *CLReader) Close() error {
	err1 := r.idx.Close()
	err2 := r.log.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// resolve fetches the real entry behind an index entry, charging disk
// reads as it goes. tr, when non-nil, receives the log read as an
// sstable_read span (log records are uncached, so every resolve of a
// live value is a device-model read).
func (r *CLReader) resolve(ie base.Entry, tr *obs.Trace) (base.Entry, int, error) {
	off := int64(binary.LittleEndian.Uint64(ie.Value))
	if ie.Kind == base.KindDelete {
		// Tombstone: no value to fetch.
		return base.Entry{Key: ie.Key, Seq: ie.Seq, Kind: base.KindDelete}, 0, nil
	}
	var rs time.Time
	if tr != nil {
		rs = time.Now()
	}
	rec, n, err := wal.ReadRecordAt(r.log, off)
	if tr != nil {
		tr.Span(obs.SpanSSTableRead, rs, fmt.Sprintf("cl-table %06d log@%d %dB", r.idx.id, off, n))
	}
	if err != nil {
		return base.Entry{}, 1, fmt.Errorf("cl-sstable %d: log offset %d: %w", r.idx.id, off, err)
	}
	if !bytes.Equal(rec.Key, ie.Key) {
		return base.Entry{}, 1, fmt.Errorf("cl-sstable %d: index/log key mismatch at offset %d", r.idx.id, off)
	}
	return rec, 1, nil
}

// Get implements Table: search the index, then read the log at the
// recorded offset (paper: "the index is searched for the key, and, if
// found, the CL-SSTable is accessed at the corresponding offset").
func (r *CLReader) Get(key []byte, tr *obs.Trace) (base.Entry, bool, int, error) {
	ie, found, reads, err := r.idx.Get(key, tr)
	if err != nil || !found {
		return base.Entry{}, false, reads, err
	}
	e, extra, err := r.resolve(ie, tr)
	return e, err == nil, reads + extra, err
}

// NewIterator implements Table. The index is sorted, so iteration (and the
// L0→L1 merge during compaction) proceeds merge-sort style. The sealed log
// is read into memory once — a single sequential read, which is how a real
// merge would stream it — rather than one random read per record.
func (r *CLReader) NewIterator() (Iterator, error) {
	inner, err := r.idx.NewIterator()
	if err != nil {
		return nil, err
	}
	buf, err := r.readLog(nil)
	if err != nil {
		return nil, err
	}
	return &clIter{r: r, inner: inner, logBuf: buf}, nil
}

// NewMergeIterator implements Table: every iterator m opens on this table
// decodes from the one log image m holds.
func (r *CLReader) NewMergeIterator(m *Merge) (Iterator, error) {
	inner, err := r.idx.NewMergeIterator(m)
	if err != nil {
		return nil, err
	}
	buf, err := m.logImage(r)
	if err != nil {
		return nil, err
	}
	return &clIter{r: r, inner: inner, logBuf: buf}, nil
}

// readLog returns the whole log, read with one sequential read into buf
// if that is large enough and into a fresh buffer if not.
func (r *CLReader) readLog(buf []byte) ([]byte, error) {
	size, err := r.log.Size()
	if err != nil {
		return nil, err
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if size > 0 {
		if n, err := r.log.ReadAt(buf, 0); err != nil && !(err == io.EOF && n == len(buf)) {
			return nil, err
		}
	}
	return buf, nil
}

// Merge is what the iterators of one background merge share: the image of
// each input CL-SSTable's commit log, read once — by whichever slice of
// the merge asks first — instead of once per slice, into a buffer drawn
// from a pool. A slice of a skewed table decodes a few percent of the
// log it would otherwise read and allocate whole. The zero value is
// ready; Close returns the buffers, after which no entry of the merge's
// iterators may be used.
type Merge struct {
	mu   sync.Mutex
	logs map[*CLReader]*[]byte
}

// logPool recycles log images (*[]byte) between merges.
var logPool sync.Pool

// logImage returns the merge's image of r's log, reading it if this is
// the first request. The lock is held across the read: every slice wants
// every image, so there is nothing to overlap it with.
func (m *Merge) logImage(r *CLReader) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if img := m.logs[r]; img != nil {
		return *img, nil
	}
	img, _ := logPool.Get().(*[]byte)
	if img == nil {
		img = new([]byte)
	}
	var err error
	if *img, err = r.readLog(*img); err != nil {
		return nil, err
	}
	if m.logs == nil {
		m.logs = make(map[*CLReader]*[]byte)
	}
	m.logs[r] = img
	return *img, nil
}

// Close releases what the merge's iterators shared.
func (m *Merge) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, img := range m.logs {
		logPool.Put(img)
	}
	m.logs = nil
}

type clIter struct {
	r      *CLReader
	inner  Iterator
	logBuf []byte
	cur    base.Entry
	err    error
}

func (it *clIter) fill() bool {
	ie := it.inner.Entry()
	if ie.Kind == base.KindDelete {
		it.cur = base.Entry{Key: ie.Key, Seq: ie.Seq, Kind: base.KindDelete}
		return true
	}
	off := int64(binary.LittleEndian.Uint64(ie.Value))
	rec, _, err := wal.DecodeRecord(it.logBuf, off)
	if err != nil {
		it.err = fmt.Errorf("cl-sstable %d: log offset %d: %w", it.r.idx.id, off, err)
		return false
	}
	if !bytes.Equal(rec.Key, ie.Key) {
		it.err = fmt.Errorf("cl-sstable %d: index/log key mismatch at offset %d", it.r.idx.id, off)
		return false
	}
	it.cur = rec
	return true
}

func (it *clIter) Next() bool {
	if it.err != nil || !it.inner.Next() {
		return false
	}
	return it.fill()
}

func (it *clIter) SeekGE(key []byte) bool {
	if it.err != nil || !it.inner.SeekGE(key) {
		return false
	}
	return it.fill()
}

func (it *clIter) Entry() base.Entry { return it.cur }

func (it *clIter) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.inner.Err()
}

func (it *clIter) Close() error { return it.inner.Close() }
