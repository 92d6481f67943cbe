package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// CL-SSTable (paper §4.3, Figure 6): the sealed commit log is adopted as
// the value store of an L0 table, and flushing writes only a sorted
// (key → log offset) index. The index reuses the classic table container —
// blocks, Bloom filter, footer — with the log offset stored in the entry's
// value slot, so the whole format stack is shared. The paper's example
// keeps exactly this pair: for each key, the memtable value plus the CL
// name and offset of its most recent update.
//
// A flush's table points into one log. A fold (lsm) merges several of
// them into one table over all of their logs by merging their indexes
// alone: the properties list the table's logs, and each entry's value is
// its uvarint offset followed, when the table has more than one log, by
// the uvarint position of its log in that list. With keys that share
// their block's prefixes, an entry of a 1 MiB log with 8-byte keys takes
// about 12 bytes. A table written before prefix elision (footerMagicV2)
// stores each offset as 8 little-endian bytes.

// CLWriter builds the index file of a CL-SSTable over a list of logs. It
// is a Writer whose Add takes a log position in place of a value.
type CLWriter struct {
	*Writer
	logs  map[uint64]int // log id → its position in the table's list
	value [2 * binary.MaxVarintLen64]byte
}

// NewCLWriter creates CL-SSTable index file id whose entries point into
// the commit logs logIDs (at least one).
func NewCLWriter(fs vfs.FS, id uint64, logIDs []uint64, blockSize int) (*CLWriter, error) {
	if len(logIDs) == 0 {
		return nil, fmt.Errorf("cl-sstable %d: no log", id)
	}
	w, err := newWriter(fs, CLIndexFileName(id), blockSize)
	if err != nil {
		return nil, err
	}
	w.props.logIDs = append([]uint64(nil), logIDs...)
	logs := make(map[uint64]int, len(logIDs))
	for i, l := range logIDs {
		logs[l] = i
	}
	return &CLWriter{Writer: w, logs: logs}, nil
}

// Add records that key's most recent update (with the given seq and kind)
// lives at byte offset off of log logID, one of the table's. Keys must be
// strictly ascending.
func (w *CLWriter) Add(key []byte, seq uint64, kind base.Kind, logID uint64, off int64) error {
	i, ok := w.logs[logID]
	if !ok {
		return fmt.Errorf("%s: %q points into log %d, not one of %v", w.name, key, logID, w.props.logIDs)
	}
	v := binary.AppendUvarint(w.value[:0], uint64(off)) // Writer.Add copies it
	if len(w.logs) > 1 {
		v = binary.AppendUvarint(v, uint64(i))
	}
	return w.Writer.Add(base.Entry{Key: key, Value: v, Seq: seq, Kind: kind})
}

// CLReader reads a CL-SSTable: the index plus the logs it points into.
type CLReader struct {
	idx  *Reader
	logs []vfs.File // in the order of idx.props.logIDs
}

var _ Table = (*CLReader)(nil)

// OpenCLWithCache opens CL-SSTable id in fs. The logs it references must
// still exist; the engine keeps them alive until the table is compacted
// away. Index blocks are served through the (possibly nil) block-cache
// handle; log records are not cached.
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
	r := &CLReader{idx: idx}
	for _, l := range idx.props.logIDs {
		log, err := fs.Open(wal.FileName(l))
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cl-sstable %d: open log %d: %w", id, l, err)
		}
		r.logs = append(r.logs, log)
	}
	if len(r.logs) == 0 {
		r.Close()
		return nil, fmt.Errorf("cl-sstable %d: no log", id)
	}
	return r, nil
}

// LogIDs returns the commit-log files this table's offsets point into.
func (r *CLReader) LogIDs() []uint64 { return r.idx.props.logIDs }

// LogBytes returns the bytes of the logs the table pins.
func (r *CLReader) LogBytes() (int64, error) {
	var n int64
	for _, l := range r.logs {
		size, err := l.Size()
		if err != nil {
			return 0, err
		}
		n += size
	}
	return n, nil
}

// ID implements Table.
func (r *CLReader) ID() uint64 { return r.idx.id }

// NumEntries implements Table.
func (r *CLReader) NumEntries() uint64 { return r.idx.props.numEntries }

// Close implements Table.
func (r *CLReader) Close() error {
	err := r.idx.Close()
	for _, l := range r.logs {
		if e := l.Close(); err == nil {
			err = e
		}
	}
	return err
}

// Pointer decodes the value of one of the table's index entries (as
// NewIndexIterator yields them) into the log and the offset in it that
// hold the entry's record.
func (r *CLReader) Pointer(v []byte) (logID uint64, off int64, err error) {
	i, off, err := r.pointer(v)
	if err != nil {
		return 0, 0, err
	}
	return r.idx.props.logIDs[i], off, nil
}

// pointer decodes an index entry's value into the position of its log in
// the table's list and the offset in that log.
func (r *CLReader) pointer(v []byte) (int, int64, error) {
	var off uint64
	n := 8
	if !r.idx.legacy {
		off, n = binary.Uvarint(v)
	} else if len(v) >= n {
		off = binary.LittleEndian.Uint64(v)
	}
	if n <= 0 || n > len(v) || off > math.MaxInt64 {
		return 0, 0, fmt.Errorf("cl-sstable %d: bad log offset in an index value of %d bytes", r.idx.id, len(v))
	}
	i := uint64(0)
	if rest := v[n:]; len(rest) > 0 {
		var m int
		if i, m = binary.Uvarint(rest); m != len(rest) {
			return 0, 0, fmt.Errorf("cl-sstable %d: bad log index", r.idx.id)
		}
	}
	if i >= uint64(len(r.logs)) {
		return 0, 0, fmt.Errorf("cl-sstable %d: log index %d of %d logs", r.idx.id, i, len(r.logs))
	}
	return int(i), int64(off), nil
}

// resolve fetches the real entry behind an index entry, charging disk
// reads as it goes. tr, when non-nil, receives the log read as an
// sstable_read span (log records are uncached, so every resolve of a
// live value is a device-model read).
func (r *CLReader) resolve(ie base.Entry, tr *obs.Trace) (base.Entry, int, error) {
	if ie.Kind == base.KindDelete {
		// Tombstone: no value to fetch.
		return base.Entry{Key: ie.Key, Seq: ie.Seq, Kind: base.KindDelete}, 0, nil
	}
	i, off, err := r.pointer(ie.Value)
	if err != nil {
		return base.Entry{}, 0, err
	}
	var rs time.Time
	if tr != nil {
		rs = time.Now()
	}
	rec, n, err := wal.ReadRecordAt(r.logs[i], off)
	if tr != nil {
		tr.Span(obs.SpanSSTableRead, rs, fmt.Sprintf("cl-table %06d log %d@%d %dB", r.idx.id, r.idx.props.logIDs[i], off, n))
	}
	if err != nil {
		return base.Entry{}, 1, fmt.Errorf("cl-sstable %d: log %d offset %d: %w", r.idx.id, r.idx.props.logIDs[i], off, err)
	}
	if !bytes.Equal(rec.Key, ie.Key) {
		return base.Entry{}, 1, fmt.Errorf("cl-sstable %d: index/log key mismatch at log %d offset %d", r.idx.id, r.idx.props.logIDs[i], off)
	}
	return rec, 1, nil
}

// Get implements Table: search the index, then read the log at the
// recorded offset (paper: "the index is searched for the key, and, if
// found, the CL-SSTable is accessed at the corresponding offset").
func (r *CLReader) Get(key []byte, tr *obs.Trace) (base.Entry, bool, Probe, error) {
	ie, found, p, err := r.idx.Get(key, tr)
	if err != nil || !found {
		return base.Entry{}, false, p, err
	}
	e, logReads, err := r.resolve(ie, tr)
	p.LogReads = logReads
	return e, err == nil, p, err
}

// NewIterator implements Table. The index is sorted, so iteration (and the
// L0→L1 merge during compaction) proceeds merge-sort style. Each log is
// read into memory once — a single sequential read, which is how a real
// merge would stream it — rather than one random read per record.
func (r *CLReader) NewIterator() (Iterator, error) {
	inner := r.idx.newIter(false, borrowed)
	var err error
	bufs := make([][]byte, len(r.logs))
	for i, l := range r.logs {
		if bufs[i], err = readLog(l, nil); err != nil {
			return nil, err
		}
	}
	return &clIter{r: r, inner: inner, logBufs: bufs}, nil
}

// NewMergeIterator implements Table: every iterator m opens on this table
// decodes from the one image m holds of each of its logs.
func (r *CLReader) NewMergeIterator(m *Merge) (Iterator, error) {
	inner := r.idx.newIter(true, borrowed)
	var err error
	bufs := make([][]byte, len(r.logs))
	for i, l := range r.logs {
		if bufs[i], err = m.logImage(r.idx.props.logIDs[i], l); err != nil {
			return nil, err
		}
	}
	return &clIter{r: r, inner: inner, logBufs: bufs}, nil
}

// NewIndexIterator implements Table: a fold merges CL-SSTables by merging
// their indexes and decodes each surviving entry's value with Pointer.
func (r *CLReader) NewIndexIterator() Iterator {
	return r.idx.NewIndexIterator()
}

// readLog returns the whole of log, read with one sequential read into
// buf if that is large enough and into a fresh buffer if not.
func readLog(log vfs.File, buf []byte) ([]byte, error) {
	size, err := log.Size()
	if err != nil {
		return nil, err
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if size > 0 {
		if n, err := log.ReadAt(buf, 0); err != nil && !(err == io.EOF && n == len(buf)) {
			return nil, err
		}
	}
	return buf, nil
}

// Merge is what the iterators of one background merge share: the image of
// each commit log its input CL-SSTables point into, read once into a
// buffer drawn from a pool that outlives the merge. The zero value is
// ready; Close returns the buffers, after which no entry of the merge's
// iterators may be used.
type Merge struct {
	logs map[uint64]*[]byte // by log id
}

// logPool recycles log images (*[]byte) between merges.
var logPool sync.Pool

// logImage returns the merge's image of log id, reading it from f if this
// is the first request.
func (m *Merge) logImage(id uint64, f vfs.File) ([]byte, error) {
	if img := m.logs[id]; img != nil {
		return *img, nil
	}
	img, _ := logPool.Get().(*[]byte)
	if img == nil {
		img = new([]byte)
	}
	var err error
	if *img, err = readLog(f, *img); err != nil {
		return nil, err
	}
	if m.logs == nil {
		m.logs = make(map[uint64]*[]byte)
	}
	m.logs[id] = img
	return *img, nil
}

// Close releases what the merge's iterators shared.
func (m *Merge) Close() {
	for _, img := range m.logs {
		logPool.Put(img)
	}
	m.logs = nil
}

type clIter struct {
	r       *CLReader
	inner   Iterator
	logBufs [][]byte // in the order of the table's logs
	cur     base.Entry
	err     error
}

func (it *clIter) fill() bool {
	ie := it.inner.Entry() // borrowed: valid until the inner iterator moves
	if ie.Kind == base.KindDelete {
		it.cur = base.Entry{Key: bytes.Clone(ie.Key), Seq: ie.Seq, Kind: base.KindDelete}
		return true
	}
	i, off, err := it.r.pointer(ie.Value)
	if err != nil {
		it.err = err
		return false
	}
	rec, _, err := wal.DecodeRecord(it.logBufs[i], off)
	if err != nil {
		it.err = fmt.Errorf("cl-sstable %d: log %d offset %d: %w", it.r.idx.id, it.r.idx.props.logIDs[i], off, err)
		return false
	}
	if !bytes.Equal(rec.Key, ie.Key) {
		it.err = fmt.Errorf("cl-sstable %d: index/log key mismatch at log %d offset %d", it.r.idx.id, it.r.idx.props.logIDs[i], off)
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
