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
//	shared<<2|kind (uvarint) | suffixLen(uvarint) | tailLen(uvarint) | key[shared:] | seq(uvarint) | val
//
// shared is the length of the prefix the key shares with the previous key
// of its block (0 for a block's first entry); only the rest of the key is
// stored, and the kind (set or delete) rides in the low bits of the same
// varint, which stays one byte while keys share fewer than 32 bytes. The
// seq and the value (the tail) follow the key, so a lookup passes an entry
// by reading three short varints and decodes the seq of the entry it
// finds alone. A block is only ever scanned from its start, so it needs
// no restart points. A table written before prefix elision
// (footerMagicV2) stores every key whole:
//
//	kind(1) | seq(uvarint) | keyLen(uvarint) | valLen(uvarint) | key | val
//
// Blocks are not compressed; the experiments measure logical bytes, and
// compression would only rescale both systems identically.

// appendEntry appends e, whose key shares its first shared bytes with the
// previous key of the block. e.Kind must fit in kindBits.
func appendEntry(dst []byte, e base.Entry, shared int) []byte {
	var seq [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(seq[:], e.Seq)
	dst = binary.AppendUvarint(dst, uint64(shared)<<kindBits|uint64(e.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(e.Key)-shared))
	dst = binary.AppendUvarint(dst, uint64(n+len(e.Value)))
	dst = append(dst, e.Key[shared:]...)
	dst = append(dst, seq[:n]...)
	return append(dst, e.Value...)
}

// kindBits is the low bits of an entry's first varint that hold its kind.
const kindBits = 2

// sharedPrefixLen returns the length of the longest common prefix of a
// and b.
func sharedPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

var errTruncated = errors.New("sstable: truncated block")

// uvarintAt decodes the uvarint at b[off:] and returns it and the offset
// just past it, or an offset of -1 if b holds none there (or off is -1,
// so that decodes chain and fail once). An entry's lengths are mostly one
// byte, which it decodes inline.
func uvarintAt(b []byte, off int) (uint64, int) {
	if uint(off) < uint(len(b)) && b[off] < 0x80 {
		return uint64(b[off]), off + 1
	}
	return uvarintSlow(b, off)
}

func uvarintSlow(b []byte, off int) (uint64, int) {
	if uint(off) >= uint(len(b)) {
		return 0, -1
	}
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, -1
	}
	return v, off + n
}

// entryHeader is what an entry stores before its key suffix.
type entryHeader struct {
	kind   base.Kind
	shared int    // bytes of the previous key the key starts with
	suffix int    // bytes of the key stored after them
	tail   int    // bytes after the key: the seq and the value (legacy: the value)
	seq    uint64 // a legacy entry's, read before its key
}

// decodeHeader parses the header of the entry at b[off:], off < len(b),
// into h and returns the offset of the entry's key suffix, which is
// followed, inside b, by the entry's tail; or -1 if the entry does not fit
// in b. It fills h in place: returned as a value, the header made a
// lookup's scan half again as slow.
func decodeHeader(b []byte, off int, legacy bool, h *entryHeader) int {
	var first, kl, tl uint64
	if legacy {
		first = uint64(b[off])
		h.seq, off = uvarintAt(b, off+1)
	} else {
		first, off = uvarintAt(b, off)
	}
	kl, off = uvarintAt(b, off)
	tl, off = uvarintAt(b, off)
	if off < 0 || kl > uint64(len(b)-off) || tl > uint64(len(b)-off)-kl {
		return -1
	}
	h.kind, h.suffix, h.tail = base.Kind(first), int(kl), int(tl)
	if !legacy {
		h.kind, h.shared = base.Kind(first&(1<<kindBits-1)), int(first>>kindBits)
	}
	return off
}

// finish decodes the tail of the entry with header h whose key suffix
// starts at b[off:] into e's seq and value (aliasing b), and returns the
// offset just past the entry.
func (h entryHeader) finish(b []byte, off int, legacy bool, e *base.Entry) (int, error) {
	off += h.suffix
	end := off + h.tail
	e.Seq = h.seq
	if !legacy {
		if e.Seq, off = uvarintAt(b[:end], off); off < 0 {
			return 0, errTruncated
		}
	}
	if off < end {
		e.Value = b[off:end:end]
	}
	return end, nil
}

func errShared(shared, prev int) error {
	return fmt.Errorf("sstable: corrupt block: a key shares %d bytes with a previous key of %d", shared, prev)
}

// decodeEntry parses the entry at b[off:], whose block's previous key is
// prev (empty for the block's first entry), and returns it and the offset
// just past it. The key is rebuilt in prev's storage, so a scan passes
// each entry's key back as the next one's prev and allocates nothing once
// that buffer fits; the value aliases b. A legacy block (a table written
// before prefix elision) stores every key whole.
func decodeEntry(b []byte, off int, prev []byte, legacy bool) (base.Entry, int, error) {
	var h entryHeader
	if off = decodeHeader(b, off, legacy, &h); off < 0 {
		return base.Entry{}, 0, errTruncated
	}
	if h.shared > len(prev) {
		return base.Entry{}, 0, errShared(h.shared, len(prev))
	}
	e := base.Entry{Kind: h.kind, Key: append(prev[:h.shared], b[off:off+h.suffix]...)}
	off, err := h.finish(b, off, legacy, &e)
	return e, off, err
}

// findEntry looks key up in block b, scanning it from its start. It
// rebuilds no key and decodes no seq but the found one's: an entry that
// shares more of its predecessor's key than key does sorts below key
// unread, and of any other entry only the stored suffix is compared. The
// entry found aliases key and b.
func findEntry(b, key []byte, legacy bool) (base.Entry, bool, error) {
	matched, prevLen := 0, 0 // bytes key shares with the previous key; its length
	for off := 0; off < len(b); {
		var h entryHeader
		at := decodeHeader(b, off, legacy, &h)
		if at < 0 {
			return base.Entry{}, false, errTruncated
		}
		if h.shared > prevLen {
			return base.Entry{}, false, errShared(h.shared, prevLen)
		}
		suffix := b[at : at+h.suffix]
		prevLen = h.shared + h.suffix
		off = at + h.suffix + h.tail
		if h.shared > matched {
			// It starts with the previous key's byte at matched, which is
			// below key's.
			continue
		}
		rest := key[h.shared:]
		n := sharedPrefixLen(suffix, rest)
		matched = h.shared + n
		switch {
		case n == len(suffix) && n == len(rest):
			e := base.Entry{Key: key, Kind: h.kind}
			_, err := h.finish(b, at, legacy, &e)
			return e, err == nil, err
		case n == len(rest) || n < len(suffix) && suffix[n] > rest[n]:
			return base.Entry{}, false, nil // past key
		}
	}
	return base.Entry{}, false, nil
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

// footer: the index, filter and properties blocks' handles as fixed u64
// pairs, then footerMagic; 56 bytes. The footer of a table written before
// prefix elision (footerMagicV2) also holds a stored HLL sketch's handle,
// between the filter's and the properties'; 72 bytes. That sketch is never
// read: the engine keeps an L0 table's sketch beside its metadata.
const (
	footerSize       = 3*16 + 8
	legacyFooterSize = 4*16 + 8
)

type footer struct {
	index, filter, properties blockHandle
	legacy                    bool // footerMagicV2
}

func (f footer) encode() []byte {
	out := make([]byte, 0, footerSize)
	for _, h := range []blockHandle{f.index, f.filter, f.properties} {
		out = binary.LittleEndian.AppendUint64(out, h.offset)
		out = binary.LittleEndian.AppendUint64(out, h.length)
	}
	return binary.LittleEndian.AppendUint64(out, footerMagic)
}

func readFooter(f vfs.File) (footer, error) {
	size, err := f.Size()
	if err != nil {
		return footer{}, err
	}
	if size < footerSize {
		return footer{}, fmt.Errorf("sstable: file too small (%d bytes)", size)
	}
	n := min(size, legacyFooterSize)
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, size-n); err != nil && err != io.EOF {
		return footer{}, err
	}
	handle := func(at int64) blockHandle {
		b := buf[at:]
		return blockHandle{binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])}
	}
	switch binary.LittleEndian.Uint64(buf[n-8:]) {
	case footerMagic:
		at := n - footerSize
		return footer{index: handle(at), filter: handle(at + 16), properties: handle(at + 32)}, nil
	case footerMagicV2:
		if n < legacyFooterSize {
			return footer{}, fmt.Errorf("sstable: file too small (%d bytes)", size)
		}
		return footer{index: handle(0), filter: handle(16), properties: handle(48), legacy: true}, nil
	}
	return footer{}, errors.New("sstable: bad magic")
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
