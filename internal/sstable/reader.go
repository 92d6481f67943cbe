package sstable

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/base"
	"repro/internal/bloom"
	"repro/internal/hll"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Reader reads a classic SSTable. Metadata (index, Bloom filter, HLL
// sketch, properties) is loaded eagerly at open — the table-cache behaviour
// of production LSMs — so a Get costs at most one data-block disk read.
type Reader struct {
	f      vfs.File
	id     uint64
	index  []indexEntry
	filter *bloom.Filter
	sketch *hll.Sketch
	props  props
	size   int64
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
	var err error
	if r.size, err = r.f.Size(); err != nil {
		return err
	}
	ftr, err := readFooter(r.f)
	if err != nil {
		return err
	}
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
	sb, err := readBlock(r.f, ftr.sketch)
	if err != nil {
		return err
	}
	if len(sb) > 0 { // empty: written with OmitSketch
		if r.sketch, err = hll.Unmarshal(sb); err != nil {
			return err
		}
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

// Smallest implements Table.
func (r *Reader) Smallest() []byte { return r.props.smallest }

// Largest implements Table.
func (r *Reader) Largest() []byte { return r.props.largest }

// NumEntries implements Table.
func (r *Reader) NumEntries() uint64 { return r.props.numEntries }

// FileSize implements Table.
func (r *Reader) FileSize() int64 { return r.size }

// Sketch implements Table; nil for a table written with OmitSketch.
func (r *Reader) Sketch() *hll.Sketch { return r.sketch }

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
	for off := 0; off < len(blk); {
		e, next, err := decodeEntry(blk, off)
		if err != nil {
			return base.Entry{}, false, p, err
		}
		switch bytes.Compare(e.Key, key) {
		case 0:
			p.FalsePositive = false
			return e.Clone(), true, p, nil
		case 1:
			return base.Entry{}, false, p, nil
		}
		off = next
	}
	return base.Entry{}, false, p, nil
}

// NewIterator implements Table.
func (r *Reader) NewIterator() (Iterator, error) {
	return &readerIter{r: r, block: -1}, nil
}

// NewMergeIterator implements Table.
func (r *Reader) NewMergeIterator(*Merge) (Iterator, error) {
	return &readerIter{r: r, block: -1, merge: true}, nil
}

type readerIter struct {
	r     *Reader
	merge bool // a background merge's iterator: reads do not fill the cache
	block int  // current block index; -1 before first
	buf   []byte
	off   int
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
	return true
}

func (it *readerIter) Next() bool {
	if it.err != nil {
		return false
	}
	for {
		if it.block == -1 || it.off >= len(it.buf) {
			if !it.loadBlock(it.block + 1) {
				return false
			}
		}
		if it.off < len(it.buf) {
			e, next, err := decodeEntry(it.buf, it.off)
			if err != nil {
				it.err = err
				it.valid = false
				return false
			}
			it.off = next
			it.cur = it.own(e)
			it.valid = true
			return true
		}
	}
}

// own returns e as the iterator yields it. A merge's entries alias their
// block: blocks are never written once read or cached, and a merge's
// entries need only outlive the merge (Table.NewMergeIterator), so the
// copy every other reader gets is not worth its allocation there.
func (it *readerIter) own(e base.Entry) base.Entry {
	if it.merge {
		return e
	}
	return e.Clone()
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
		e, next, err := decodeEntry(it.buf, it.off)
		if err != nil {
			it.err = err
			it.valid = false
			return false
		}
		if bytes.Compare(e.Key, key) >= 0 {
			it.off = next
			it.cur = it.own(e)
			it.valid = true
			return true
		}
		it.off = next
	}
	// key is past this block's last entry; the next block starts >= key.
	return it.Next()
}

func (it *readerIter) Entry() base.Entry { return it.cur }
func (it *readerIter) Err() error        { return it.err }
func (it *readerIter) Close() error      { return nil }
