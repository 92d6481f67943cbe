package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/base"
	"repro/internal/vfs"
)

// Data block entry layout (little endian, varint lengths):
//
//	kind(1) | seq(uvarint) | keyLen(uvarint) | valLen(uvarint) | key | val
//
// Blocks are not compressed; the experiments measure logical bytes, and
// compression would only rescale both systems identically.

func appendEntry(dst []byte, e base.Entry) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(e.Key)))
	dst = binary.AppendUvarint(dst, uint64(len(e.Value)))
	dst = append(dst, e.Key...)
	dst = append(dst, e.Value...)
	return dst
}

var errTruncated = errors.New("sstable: truncated block")

// decodeEntry parses one entry at b[off:]; it returns the entry (aliasing
// b) and the offset just past it.
func decodeEntry(b []byte, off int) (base.Entry, int, error) {
	if off >= len(b) {
		return base.Entry{}, 0, errTruncated
	}
	var e base.Entry
	e.Kind = base.Kind(b[off])
	off++
	seq, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return base.Entry{}, 0, errTruncated
	}
	off += n
	kl, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return base.Entry{}, 0, errTruncated
	}
	off += n
	vl, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return base.Entry{}, 0, errTruncated
	}
	off += n
	if off+int(kl)+int(vl) > len(b) {
		return base.Entry{}, 0, errTruncated
	}
	e.Seq = seq
	e.Key = b[off : off+int(kl) : off+int(kl)]
	off += int(kl)
	if vl > 0 {
		e.Value = b[off : off+int(vl) : off+int(vl)]
		off += int(vl)
	}
	return e, off, nil
}

// blockHandle locates a block within the file.
type blockHandle struct {
	offset uint64
	length uint64
}

// index block: uvarint count, then per block: lastKeyLen|lastKey|off|len.
func encodeIndex(blocks []indexEntry) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(blocks)))
	for _, ie := range blocks {
		out = binary.AppendUvarint(out, uint64(len(ie.lastKey)))
		out = append(out, ie.lastKey...)
		out = binary.AppendUvarint(out, ie.handle.offset)
		out = binary.AppendUvarint(out, ie.handle.length)
	}
	return out
}

type indexEntry struct {
	lastKey []byte
	handle  blockHandle
}

func decodeIndex(b []byte) ([]indexEntry, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errTruncated
	}
	off := n
	out := make([]indexEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		kl, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, errTruncated
		}
		off += n
		if off+int(kl) > len(b) {
			return nil, errTruncated
		}
		key := b[off : off+int(kl) : off+int(kl)]
		off += int(kl)
		bo, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, errTruncated
		}
		off += n
		bl, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, errTruncated
		}
		off += n
		out = append(out, indexEntry{lastKey: key, handle: blockHandle{bo, bl}})
	}
	return out, nil
}

// properties block.
type props struct {
	numEntries uint64
	smallest   []byte
	largest    []byte
	// logIDs are the commit-log files a CL-SSTable's offsets point into;
	// none for classic tables. Encoded as the first id (zero for none),
	// then, only for more than one, the count of the rest and the rest —
	// so a single-log table reads as it did before tables had several.
	logIDs []uint64
}

func (p props) encode() []byte {
	var out []byte
	out = binary.AppendUvarint(out, p.numEntries)
	out = binary.AppendUvarint(out, uint64(len(p.smallest)))
	out = append(out, p.smallest...)
	out = binary.AppendUvarint(out, uint64(len(p.largest)))
	out = append(out, p.largest...)
	var first uint64
	if len(p.logIDs) > 0 {
		first = p.logIDs[0]
	}
	out = binary.AppendUvarint(out, first)
	if len(p.logIDs) > 1 {
		out = binary.AppendUvarint(out, uint64(len(p.logIDs)-1))
		for _, id := range p.logIDs[1:] {
			out = binary.AppendUvarint(out, id)
		}
	}
	return out
}

func decodeProps(b []byte) (props, error) {
	var p props
	var n int
	off := 0
	p.numEntries, n = binary.Uvarint(b[off:])
	if n <= 0 {
		return p, errTruncated
	}
	off += n
	sl, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return p, errTruncated
	}
	off += n
	if off+int(sl) > len(b) {
		return p, errTruncated
	}
	p.smallest = append([]byte(nil), b[off:off+int(sl)]...)
	off += int(sl)
	ll, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return p, errTruncated
	}
	off += n
	if off+int(ll) > len(b) {
		return p, errTruncated
	}
	p.largest = append([]byte(nil), b[off:off+int(ll)]...)
	off += int(ll)
	first, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return p, errTruncated
	}
	off += n
	if first == 0 {
		return p, nil
	}
	p.logIDs = []uint64{first}
	if off == len(b) {
		return p, nil
	}
	rest, n := binary.Uvarint(b[off:])
	if n <= 0 || rest > uint64(len(b)) {
		return p, errTruncated
	}
	off += n
	for i := uint64(0); i < rest; i++ {
		id, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return p, errTruncated
		}
		off += n
		p.logIDs = append(p.logIDs, id)
	}
	return p, nil
}

// footer: 4 block handles (index, filter, hll, props) as fixed u64 pairs,
// then magic. 72 bytes total.
const footerSize = 8*8 + 8

type footer struct {
	index, filter, sketch, properties blockHandle
}

func (f footer) encode() []byte {
	out := make([]byte, footerSize)
	le := binary.LittleEndian
	le.PutUint64(out[0:], f.index.offset)
	le.PutUint64(out[8:], f.index.length)
	le.PutUint64(out[16:], f.filter.offset)
	le.PutUint64(out[24:], f.filter.length)
	le.PutUint64(out[32:], f.sketch.offset)
	le.PutUint64(out[40:], f.sketch.length)
	le.PutUint64(out[48:], f.properties.offset)
	le.PutUint64(out[56:], f.properties.length)
	le.PutUint64(out[64:], footerMagic)
	return out
}

func readFooter(f vfs.File) (footer, error) {
	size, err := f.Size()
	if err != nil {
		return footer{}, err
	}
	if size < footerSize {
		return footer{}, fmt.Errorf("sstable: file too small (%d bytes)", size)
	}
	buf := make([]byte, footerSize)
	if _, err := f.ReadAt(buf, size-footerSize); err != nil && err != io.EOF {
		return footer{}, err
	}
	le := binary.LittleEndian
	if le.Uint64(buf[64:]) != footerMagic {
		return footer{}, errors.New("sstable: bad magic")
	}
	return footer{
		index:      blockHandle{le.Uint64(buf[0:]), le.Uint64(buf[8:])},
		filter:     blockHandle{le.Uint64(buf[16:]), le.Uint64(buf[24:])},
		sketch:     blockHandle{le.Uint64(buf[32:]), le.Uint64(buf[40:])},
		properties: blockHandle{le.Uint64(buf[48:]), le.Uint64(buf[56:])},
	}, nil
}

// blockTrailerLen is the per-block CRC32 trailer, covering the block
// contents (data and metadata blocks alike).
const blockTrailerLen = 4

// readBlock fetches and verifies one block, returning its contents
// without the trailer.
func readBlock(f vfs.File, h blockHandle) ([]byte, error) {
	if h.length < blockTrailerLen {
		return nil, errors.New("sstable: block shorter than its trailer")
	}
	buf := make([]byte, h.length)
	n, err := f.ReadAt(buf, int64(h.offset))
	if err != nil && !(err == io.EOF && uint64(n) == h.length) {
		return nil, err
	}
	data := buf[:h.length-blockTrailerLen]
	want := binary.LittleEndian.Uint32(buf[h.length-blockTrailerLen:])
	if crc32.ChecksumIEEE(data) != want {
		return nil, fmt.Errorf("sstable: block at %d fails checksum", h.offset)
	}
	return data, nil
}

// seekBlocks returns the position of the first index entry whose lastKey is
// >= key, i.e. the first block that could contain key.
func seekBlocks(index []indexEntry, key []byte) int {
	lo, hi := 0, len(index)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(index[mid].lastKey, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
