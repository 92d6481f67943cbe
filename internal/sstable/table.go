// Package sstable implements the on-disk sorted-table formats of the
// engine's disk component Cdisk (paper §2):
//
//   - the classic SSTable: sorted data blocks, a sparse index, a Bloom
//     filter, a HyperLogLog sketch, properties and a footer, produced by
//     flushes and compactions; and
//   - the CL-SSTable of TRIAD-LOG (paper §4.3): a small sorted index of
//     (key → commit-log offset) paired with the sealed commit-log file that
//     holds the values, so a flush writes only the index.
//
// Both satisfy the Table interface, which is what the read path, the
// compaction merge and the manifest operate on — the rest of the engine is
// format-agnostic.
//
// The shared block cache hands out per-tenant Handles whose resident
// bytes are reclaimed only by Release; TestCloseReleasesCacheTenant
// (internal/lsm) checks that a closed store leaves none resident.
package sstable

import (
	"fmt"

	"repro/internal/base"
	"repro/internal/hll"
	"repro/internal/obs"
)

// Table is a read-only sorted table of versioned entries.
type Table interface {
	// ID is the table's file number.
	ID() uint64
	// Get returns the entry for key if present, and what the lookup cost:
	// whether the Bloom filter excluded the key, and the disk reads it
	// performed, which feed read amplification. tr, when non-nil, receives
	// an sstable_read span per disk read (the usual caller passes nil).
	Get(key []byte, tr *obs.Trace) (e base.Entry, found bool, p Probe, err error)
	// NewIterator iterates all entries in ascending key order.
	NewIterator() (Iterator, error)
	// NewMergeIterator is NewIterator for one input of the background
	// merge m (a compaction): blocks it reads are not offered to the block
	// cache, and a CL-SSTable's logs are read whole, once (see Merge). Its
	// entries are valid until m is closed.
	NewMergeIterator(m *Merge) (Iterator, error)
	// Smallest and Largest bound the key range (inclusive).
	Smallest() []byte
	Largest() []byte
	// NumEntries is the number of records in the table.
	NumEntries() uint64
	// FileSize is the on-disk size in bytes of the table file itself
	// (for a CL-SSTable: the index file, not the shared log).
	FileSize() int64
	// Sketch returns the table's HyperLogLog key sketch (TRIAD-DISK).
	Sketch() *hll.Sketch
	// Close releases file handles.
	Close() error
}

// Probe is what one Table.Get cost.
type Probe struct {
	// FilterNegative reports that the key lay in the table's key range and
	// its Bloom filter ruled it out, so the lookup read nothing.
	// FalsePositive reports that the filter passed the key but the table
	// holds no entry for it. A lookup of a key in the table's range is
	// exactly one of the two, or found.
	FilterNegative, FalsePositive bool
	// BlockReads counts the blocks the lookup read from the device (a block
	// the cache held costs none). LogReads counts the commit-log records it
	// read: a CL-SSTable's values, which are never cached.
	BlockReads, LogReads int
}

// Reads is every disk read the lookup performed.
func (p Probe) Reads() int { return p.BlockReads + p.LogReads }

// Iterator walks a table in ascending key order.
//
// Usage: for it.Next() { e := it.Entry() ... }; check Err, then Close.
type Iterator interface {
	// Next advances and reports whether an entry is available.
	Next() bool
	// SeekGE positions at the first entry with key >= key.
	SeekGE(key []byte) bool
	// Entry returns the current entry. The returned slices are stable
	// (not reused across Next calls).
	Entry() base.Entry
	// Err returns the first error encountered.
	Err() error
	// Close releases iterator resources.
	Close() error
}

// FileName returns the canonical name of classic SSTable id.
func FileName(id uint64) string { return fmt.Sprintf("%06d.sst", id) }

// CLIndexFileName returns the canonical name of a CL-SSTable index file.
func CLIndexFileName(id uint64) string { return fmt.Sprintf("%06d.clidx", id) }

const footerMagic uint64 = 0x7472696164317632 // "triad1v2"
