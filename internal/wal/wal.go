// Package wal implements the commit log (Figure 1 of the paper).
//
// Classically the log only backs up the memtable for crash recovery and is
// discarded after a flush. TRIAD-LOG (paper §4.3) additionally treats a
// sealed log file as the value store of an L0 "CL-SSTable": the memtable
// remembers, per key, the file ID and byte offset of the most recent
// update, and the flush emits only a small sorted index pointing into the
// log. To support that, Append returns the offset of each record and
// ReadRecordAt decodes a single record from an arbitrary offset.
//
// Record layout (little endian, fixed 21-byte header):
//
//	crc32(4) | seq(8) | kind(1) | keyLen(4) | valueLen(4) | key | value
//
// The CRC covers everything after itself. A torn tail (short or corrupt
// final record) terminates replay without error, mirroring standard WAL
// semantics.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"repro/internal/base"
	"repro/internal/vfs"
)

const headerSize = 4 + 8 + 1 + 4 + 4

// ErrCorrupt is returned by ReadRecordAt when the record fails its CRC.
var ErrCorrupt = errors.New("wal: corrupt record")

// FileName returns the canonical name of log file id.
func FileName(id uint64) string { return fmt.Sprintf("%06d.log", id) }

// Writer appends records to one commit log file. It is not safe for
// concurrent use: the engine appends under its commit lock and seals the
// file (Close) only after the last append, so a lock of the writer's own
// would be taken and never contended. Size, Synced and Unsynced are the
// exception: any goroutine may call them at any time.
type Writer struct {
	f   vfs.File
	id  uint64
	off atomic.Int64
	// synced is the length of the file at its last successful sync: the
	// bytes a power cut cannot take.
	synced atomic.Int64
	buf    []byte        // the records of one AppendBatch, reused
	offs   []int64       // their offsets, reused
	one    [1]base.Entry // Append's batch of one
	sync   bool
}

// NewWriter creates log file id in fs. If syncOnAppend is true every
// append (of one record or of one batch) is followed by a Sync
// (durability at the cost of throughput; the paper's workloads use batched
// logging, so the default experiments pass false).
func NewWriter(fs vfs.FS, id uint64, syncOnAppend bool) (*Writer, error) {
	f, err := fs.Create(FileName(id))
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, id: id, sync: syncOnAppend}, nil
}

// ID returns the log file ID.
func (w *Writer) ID() uint64 { return w.id }

// Size returns the number of bytes appended so far.
func (w *Writer) Size() int64 { return w.off.Load() }

// Synced returns the number of bytes appended before the last successful
// sync: those that survive a power cut.
func (w *Writer) Synced() int64 { return w.synced.Load() }

// Unsynced returns the bytes appended since the last successful sync: those
// a power cut could take.
func (w *Writer) Unsynced() int64 {
	// The size first: a batch synced as it is appended publishes its synced
	// length before its size, so at worst synced is read ahead of off.
	off := w.off.Load()
	return max(0, off-w.synced.Load())
}

// Append writes one record and returns the byte offset it was written at
// (the offset TRIAD-LOG stores in the memtable) and the number of bytes
// appended.
func (w *Writer) Append(e base.Entry) (offset int64, n int, err error) {
	w.one[0] = e
	offs, n, err := w.AppendBatch(w.one[:])
	if err != nil {
		return 0, 0, err
	}
	return offs[0], n, nil
}

// BatchSize is how many bytes AppendBatch(recs) adds to a log: the records
// and their headers.
func BatchSize(recs []base.Entry) (n int) {
	for i := range recs {
		n += headerSize + len(recs[i].Key) + len(recs[i].Value)
	}
	return n
}

// AppendBatch writes recs as consecutive records — each framed and
// checksummed exactly as by Append — with one write to the file, and
// returns the byte offset of each record and the total bytes appended.
// The offsets are valid until the next append. A failed write appends
// nothing the writer accounts for: either every record of the batch is in
// the log or, after a crash mid-write, a prefix of them and one torn
// record that replay discards.
func (w *Writer) AppendBatch(recs []base.Entry) (offsets []int64, n int, err error) {
	n = BatchSize(recs)
	if n == 0 {
		return nil, 0, nil
	}
	if cap(w.buf) < n {
		w.buf = make([]byte, n)
	}
	buf := w.buf[:n]
	w.offs = w.offs[:0]
	off := w.off.Load()
	at := 0
	for i := range recs {
		e := &recs[i]
		w.offs = append(w.offs, off+int64(at))
		b := buf[at : at+headerSize+len(e.Key)+len(e.Value)]
		binary.LittleEndian.PutUint64(b[4:12], e.Seq)
		b[12] = byte(e.Kind)
		binary.LittleEndian.PutUint32(b[13:17], uint32(len(e.Key)))
		binary.LittleEndian.PutUint32(b[17:21], uint32(len(e.Value)))
		copy(b[21:], e.Key)
		copy(b[21+len(e.Key):], e.Value)
		binary.LittleEndian.PutUint32(b[0:4], crc32.ChecksumIEEE(b[4:]))
		at += len(b)
	}
	if _, err := w.f.Write(buf); err != nil {
		return nil, 0, err
	}
	off += int64(n)
	if w.sync {
		// The synced length moves first, so that Unsynced never counts a
		// batch this call syncs.
		err = w.f.Sync()
		if err == nil {
			w.synced.Store(off)
		}
	}
	w.off.Store(off)
	if err != nil {
		return nil, 0, err
	}
	return w.offs, n, nil
}

// Sync flushes the log to stable storage. It does nothing when every
// appended byte already is.
func (w *Writer) Sync() error {
	off := w.off.Load()
	if w.synced.Load() == off {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced.Store(off)
	return nil
}

// Close syncs and closes the file, which it closes even when the sync
// fails. The file remains on disk; the engine removes it once its contents
// are durable elsewhere (or retains it as a CL-SSTable value store under
// TRIAD-LOG).
func (w *Writer) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync makes log id, which no writer appends to any more, durable as it
// stands and returns its size.
func Sync(fs vfs.FS, id uint64) (int64, error) {
	f, err := fs.Open(FileName(id))
	if err != nil {
		return 0, err
	}
	size, err := f.Size()
	if err == nil {
		err = f.Sync()
	}
	return size, errors.Join(err, f.Close())
}

// ReadRecordAt decodes the record at offset off in file f. It returns the
// entry and the total encoded length of the record.
func ReadRecordAt(f vfs.File, off int64) (base.Entry, int, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(readerAt{f, off}, hdr[:]); err != nil {
		return base.Entry{}, 0, err
	}
	keyLen := binary.LittleEndian.Uint32(hdr[13:17])
	valLen := binary.LittleEndian.Uint32(hdr[17:21])
	if keyLen > 1<<30 || valLen > 1<<30 {
		return base.Entry{}, 0, ErrCorrupt
	}
	body := make([]byte, keyLen+valLen)
	if _, err := io.ReadFull(readerAt{f, off + headerSize}, body); err != nil {
		return base.Entry{}, 0, err
	}
	return assembleRecord(hdr[:], body)
}

// DecodeRecord decodes the record at offset off within an in-memory log
// image (used by the CL-SSTable merge path, which reads the whole sealed
// log sequentially once instead of one random read per record).
func DecodeRecord(log []byte, off int64) (base.Entry, int, error) {
	if off < 0 || off+headerSize > int64(len(log)) {
		return base.Entry{}, 0, io.ErrUnexpectedEOF
	}
	hdr := log[off : off+headerSize]
	keyLen := binary.LittleEndian.Uint32(hdr[13:17])
	valLen := binary.LittleEndian.Uint32(hdr[17:21])
	if keyLen > 1<<30 || valLen > 1<<30 {
		return base.Entry{}, 0, ErrCorrupt
	}
	end := off + headerSize + int64(keyLen) + int64(valLen)
	if end > int64(len(log)) {
		return base.Entry{}, 0, io.ErrUnexpectedEOF
	}
	return assembleRecord(hdr, log[off+headerSize:end])
}

func assembleRecord(hdr, body []byte) (base.Entry, int, error) {
	keyLen := binary.LittleEndian.Uint32(hdr[13:17])
	valLen := binary.LittleEndian.Uint32(hdr[17:21])
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:])
	crc.Write(body)
	if crc.Sum32() != binary.LittleEndian.Uint32(hdr[0:4]) {
		return base.Entry{}, 0, ErrCorrupt
	}
	e := base.Entry{
		Seq:   binary.LittleEndian.Uint64(hdr[4:12]),
		Kind:  base.Kind(hdr[12]),
		Key:   body[:keyLen:keyLen],
		Value: body[keyLen:],
	}
	if valLen == 0 {
		e.Value = nil
	}
	return e, headerSize + int(keyLen) + int(valLen), nil
}

type readerAt struct {
	f   vfs.File
	off int64
}

func (r readerAt) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

// Replay invokes fn for every intact record of log file id, in append
// order, passing the record's offset. Replay stops silently at the first
// torn or corrupt record (the standard crash-recovery contract) and returns
// any filesystem error encountered before that.
func Replay(fs vfs.FS, id uint64, fn func(e base.Entry, offset int64) error) error {
	f, err := fs.Open(FileName(id))
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	var off int64
	for off < size {
		e, n, err := ReadRecordAt(f, off)
		if err != nil {
			if errors.Is(err, ErrCorrupt) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // torn tail
			}
			return err
		}
		if err := fn(e, off); err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}
