package sstable

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/base"
	"repro/internal/bloom"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Reader reads a classic SSTable. Metadata (index, Bloom filter,
// properties) is loaded eagerly at open — the table-cache behaviour of
// production LSMs — so a Get costs at most one data-block disk read.
type Reader struct {
	f      vfs.File
	id     uint64
	index  []indexEntry
	filter *bloom.Filter
	props  props
	legacy bool    // written before prefix elision (footerMagicV2)
	cache  *Handle // optional view of the shared block cache
}

var _ Table = (*Reader)(nil)

// Open opens SSTable id in fs with no block cache.
func Open(fs vfs.FS, id uint64) (*Reader, error) {
	return OpenWithCache(fs, id, nil)
}

// OpenWithCache opens SSTable id in fs, serving data blocks through the
// (possibly nil) block-cache handle.
func OpenWithCache(fs vfs.FS, id uint64, cache *Handle) (*Reader, error) {
	f, err := fs.Open(FileName(id))
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, id: id, cache: cache}
	if err := r.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sstable %d: %w", id, err)
	}
	return r, nil
}

// block fetches a data block through the cache. cached reports whether
// the block came from memory (no disk access).
func (r *Reader) block(h blockHandle) (data []byte, cached bool, err error) {
	if b := r.cache.Get(r.id, h.offset); b != nil {
		return b, true, nil
	}
	b, err := readBlock(r.f, h)
	if err != nil {
		return nil, false, err
	}
	r.cache.Put(r.id, h.offset, b)
	return b, false, nil
}

// mergeBlock fetches a data block for a background merge: a cached block
// is used, but one read from the file is not offered to the cache
// (RocksDB's fill_cache=false) and the lookup leaves no trace in it.
func (r *Reader) mergeBlock(h blockHandle) ([]byte, error) {
	if b := r.cache.Peek(r.id, h.offset); b != nil {
		return b, nil
	}
	return readBlock(r.f, h)
}

func (r *Reader) load() error {
	ftr, err := readFooter(r.f)
	if err != nil {
		return err
	}
	r.legacy = ftr.legacy
	ib, err := readBlock(r.f, ftr.index)
	if err != nil {
		return err
	}
	if r.index, err = decodeIndex(ib); err != nil {
		return err
	}
	fb, err := readBlock(r.f, ftr.filter)
	if err != nil {
		return err
	}
	if r.filter, err = bloom.Unmarshal(fb); err != nil {
		return err
	}
	pb, err := readBlock(r.f, ftr.properties)
	if err != nil {
		return err
	}
	if r.props, err = decodeProps(pb); err != nil {
		return err
	}
	return nil
}

// ID implements Table.
func (r *Reader) ID() uint64 { return r.id }

// NumEntries implements Table.
func (r *Reader) NumEntries() uint64 { return r.props.numEntries }

// Close implements Table.
func (r *Reader) Close() error { return r.f.Close() }

// Get implements Table.
func (r *Reader) Get(key []byte, tr *obs.Trace) (base.Entry, bool, Probe, error) {
	var p Probe
	if bytes.Compare(key, r.props.smallest) < 0 || bytes.Compare(key, r.props.largest) > 0 {
		return base.Entry{}, false, p, nil
	}
	if !r.filter.MayContain(key) {
		p.FilterNegative = true
		return base.Entry{}, false, p, nil
	}
	p.FalsePositive = true // until the key turns up
	bi := seekBlocks(r.index, key)
	if bi >= len(r.index) {
		return base.Entry{}, false, p, nil
	}
	var rs time.Time
	if tr != nil {
		rs = time.Now()
	}
	blk, cached, err := r.block(r.index[bi].handle)
	if !cached {
		p.BlockReads = 1
	}
	if tr != nil && !cached {
		// The block came off the device model, not the cache: this is
		// the disk time a traced read actually paid.
		tr.Span(obs.SpanSSTableRead, rs, fmt.Sprintf("table %06d block@%d %dB", r.id, r.index[bi].handle.offset, len(blk)))
	}
	if err != nil {
		return base.Entry{}, false, p, err
	}
	e, found, err := findEntry(blk, key, r.legacy)
	if err != nil || !found {
		return base.Entry{}, false, p, err
	}
	p.FalsePositive = false
	return e.Clone(), true, p, nil
}

// NewIterator implements Table.
func (r *Reader) NewIterator() (Iterator, error) {
	return r.newIter(false, cloned), nil
}

// NewMergeIterator implements Table.
func (r *Reader) NewMergeIterator(*Merge) (Iterator, error) {
	return r.newIter(true, inArena), nil
}

// NewIndexIterator implements Table: a classic table stores its entries.
func (r *Reader) NewIndexIterator() Iterator {
	return r.newIter(true, inArena)
}

func (r *Reader) newIter(merge bool, keep keeping) *readerIter {
	return &readerIter{r: r, block: -1, merge: merge, keep: keep}
}

// keeping is how long an iterator's entries stay valid.
type keeping uint8

const (
	// cloned entries are the caller's own: a user's iterator copies each.
	cloned keeping = iota
	// inArena entries last as long as their merge: values alias blocks,
	// which are never written once read or cached, and keys, rebuilt in
	// one buffer, are copied into an arena an allocation holds a block's
	// worth of.
	inArena
	// borrowed entries last until Next: a CL-SSTable's iterators resolve
	// each index entry against its log before they move on.
	borrowed
)

// arenaChunk is the size of each of a merge iterator's key arenas.
const arenaChunk = DefaultBlockSize

type readerIter struct {
	r     *Reader
	merge bool // a background merge's iterator: reads do not fill the cache
	keep  keeping
	block int // current block index; -1 before first
	buf   []byte
	off   int
	key   []byte // the key decoded last, in the buffer the next one reuses
	arena []byte
	cur   base.Entry
	valid bool
	err   error
}

func (it *readerIter) loadBlock(i int) bool {
	if i >= len(it.r.index) {
		it.valid = false
		return false
	}
	var blk []byte
	var err error
	if it.merge {
		blk, err = it.r.mergeBlock(it.r.index[i].handle)
	} else {
		blk, _, err = it.r.block(it.r.index[i].handle)
	}
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.block = i
	it.buf = blk
	it.off = 0
	it.key = it.key[:0]
	return true
}

func (it *readerIter) Next() bool {
	if it.err != nil {
		return false
	}
	for it.block == -1 || it.off >= len(it.buf) {
		if !it.loadBlock(it.block + 1) {
			return false
		}
	}
	if !it.decode() {
		return false
	}
	it.own()
	it.valid = true
	return true
}

// decode decodes the entry at the iterator's offset into cur, its key in
// the iterator's key buffer, and moves past it.
func (it *readerIter) decode() bool {
	var err error
	if it.cur, it.off, err = decodeEntry(it.buf, it.off, it.key, it.r.legacy); err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.key = it.cur.Key
	return true
}

// own makes cur, whose key is in the iterator's key buffer, what the
// iterator yields (see keeping).
func (it *readerIter) own() {
	switch it.keep {
	case cloned:
		it.cur = it.cur.Clone()
	case inArena:
		k := it.cur.Key
		if len(k) > cap(it.arena)-len(it.arena) {
			it.arena = make([]byte, 0, max(arenaChunk, len(k)))
		}
		n := len(it.arena)
		it.arena = append(it.arena, k...)
		it.cur.Key = it.arena[n:len(it.arena):len(it.arena)]
	}
}

func (it *readerIter) SeekGE(key []byte) bool {
	if it.err != nil {
		return false
	}
	bi := seekBlocks(it.r.index, key)
	if bi >= len(it.r.index) {
		it.valid = false
		it.block = len(it.r.index)
		it.off = 0
		it.buf = nil
		return false
	}
	if !it.loadBlock(bi) {
		return false
	}
	for it.off < len(it.buf) {
		if !it.decode() {
			return false
		}
		if bytes.Compare(it.cur.Key, key) >= 0 {
			it.own()
			it.valid = true
			return true
		}
	}
	// key is past this block's last entry; the next block starts >= key.
	return it.Next()
}

func (it *readerIter) Entry() base.Entry { return it.cur }
func (it *readerIter) Err() error        { return it.err }
func (it *readerIter) Close() error      { return nil }
