// Package base defines the record types shared by the memtable, commit
// log, SSTables and the merge machinery: the (key, value, sequence, kind)
// tuple and its ordering.
package base

import (
	"bytes"
	"fmt"
)

// Kind discriminates sets from deletes (tombstones).
type Kind uint8

const (
	// KindSet is a live key/value pair.
	KindSet Kind = 1
	// KindDelete is a tombstone. Tombstones must survive until compaction
	// into the last level proves no older version remains below them.
	KindDelete Kind = 2
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSet:
		return "set"
	case KindDelete:
		return "del"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Entry is one versioned record.
type Entry struct {
	Key   []byte
	Value []byte
	Seq   uint64
	Kind  Kind
}

// Size returns the user-visible payload size in bytes (key + value),
// which is what write-amplification is normalized against.
func (e Entry) Size() int64 { return int64(len(e.Key) + len(e.Value)) }

// Compare orders entries by key ascending, then by sequence descending
// (newest first), matching the merge order the read path needs.
func Compare(a, b Entry) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.Seq > b.Seq:
		return -1
	case a.Seq < b.Seq:
		return 1
	default:
		return 0
	}
}

// Clone deep-copies the entry so callers may retain it past the lifetime
// of the buffer it was decoded from.
func (e Entry) Clone() Entry {
	// A fresh value, not a copy of e, so that e's slices do not flow into
	// the result: a caller's decode buffer can then stay on its stack.
	c := Entry{Seq: e.Seq, Kind: e.Kind}
	c.Key = append([]byte(nil), e.Key...)
	if e.Value != nil {
		c.Value = append([]byte(nil), e.Value...)
	}
	return c
}
