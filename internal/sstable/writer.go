package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/base"
	"repro/internal/bloom"
	"repro/internal/vfs"
)

// DefaultBlockSize is the target size of a data block.
const DefaultBlockSize = 4 << 10

// DefaultBloomBitsPerKey matches RocksDB's common 10 bits/key (~1% FP).
const DefaultBloomBitsPerKey = 10

// Writer builds a classic SSTable. Entries must be added in strictly
// ascending key order (one version per key; flush and compaction both
// guarantee this).
type Writer struct {
	f         vfs.File
	name      string // a table's file, or a CL-SSTable's index
	blockSize int

	buf     []byte // current data block
	index   []indexEntry
	lastKey []byte
	offset  uint64

	filter bloom.Builder
	props  props

	written int64
	closed  bool
}

// NewWriter creates SSTable file id in fs.
func NewWriter(fs vfs.FS, id uint64, blockSize int) (*Writer, error) {
	return newWriter(fs, FileName(id), blockSize)
}

func newWriter(fs vfs.FS, name string, blockSize int) (*Writer, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, name: name, blockSize: blockSize}, nil
}

// Add appends one entry. Keys must be strictly ascending.
func (w *Writer) Add(e base.Entry) error {
	if w.closed {
		return errors.New("sstable: writer closed")
	}
	if w.lastKey != nil && bytes.Compare(e.Key, w.lastKey) <= 0 {
		return fmt.Errorf("sstable: keys out of order: %q after %q", e.Key, w.lastKey)
	}
	if e.Kind != base.KindSet && e.Kind != base.KindDelete {
		return fmt.Errorf("sstable: %q has kind %v", e.Key, e.Kind)
	}
	if w.props.numEntries == 0 {
		w.props.smallest = append([]byte(nil), e.Key...)
	}
	shared := 0
	if len(w.buf) > 0 {
		shared = sharedPrefixLen(w.lastKey, e.Key)
	}
	w.buf = appendEntry(w.buf, e, shared)
	w.lastKey = append(w.lastKey[:0], e.Key...)
	w.props.numEntries++
	w.filter.Add(e.Key)
	if len(w.buf) >= w.blockSize {
		return w.flushBlock()
	}
	return nil
}

// writeBlock appends the CRC trailer to data, writes both in one call and
// returns the block's handle. It may overwrite data's spare capacity.
func (w *Writer) writeBlock(data []byte) (blockHandle, error) {
	h := blockHandle{offset: w.offset, length: uint64(len(data)) + blockTrailerLen}
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
	if _, err := w.f.Write(data); err != nil {
		return blockHandle{}, err
	}
	w.offset += h.length
	w.written += int64(h.length)
	return h, nil
}

func (w *Writer) flushBlock() error {
	if len(w.buf) == 0 {
		return nil
	}
	w.buf = slices.Grow(w.buf, blockTrailerLen) // room for writeBlock's trailer
	h, err := w.writeBlock(w.buf)
	if err != nil {
		return err
	}
	w.index = append(w.index, indexEntry{lastKey: append([]byte(nil), w.lastKey...), handle: h})
	w.buf = w.buf[:0]
	return nil
}

// NumEntries reports the entries added so far.
func (w *Writer) NumEntries() uint64 { return w.props.numEntries }

// KeyRange returns the smallest and the largest key of a finished table.
func (w *Writer) KeyRange() (smallest, largest []byte) {
	return w.props.smallest, w.props.largest
}

// EstimatedSize reports bytes written plus the buffered block.
func (w *Writer) EstimatedSize() int64 { return w.written + int64(len(w.buf)) }

// Finish flushes metadata and closes the file, returning the total bytes
// written (the flush/compaction byte accounting). The file is closed
// whether or not Finish succeeds.
func (w *Writer) Finish() (n int64, err error) {
	if w.closed {
		return 0, errors.New("sstable: writer closed")
	}
	w.closed = true
	defer func() {
		if cerr := w.f.Close(); err == nil && cerr != nil {
			n, err = 0, cerr
		}
	}()
	if err := w.flushBlock(); err != nil {
		return 0, err
	}
	w.props.largest = append([]byte(nil), w.lastKey...)

	var ftr footer
	writeMeta := w.writeBlock
	if ftr.index, err = writeMeta(encodeIndex(w.index)); err != nil {
		return 0, err
	}
	if ftr.filter, err = writeMeta(w.filter.Build(DefaultBloomBitsPerKey).Marshal()); err != nil {
		return 0, err
	}
	if ftr.properties, err = writeMeta(w.props.encode()); err != nil {
		return 0, err
	}
	if _, err := w.f.Write(ftr.encode()); err != nil {
		return 0, err
	}
	w.written += footerSize
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	return w.written, nil
}

// Abort closes and removes a partially written table.
func (w *Writer) Abort(fs vfs.FS) {
	if !w.closed {
		w.closed = true
		w.f.Close()
	}
	_ = fs.Remove(w.name)
}
