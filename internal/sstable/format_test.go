package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/base"
	"repro/internal/hll"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// encodeBlock encodes entries as one data block, each key sharing its
// prefix with the one before, as Writer.Add does.
func encodeBlock(entries []base.Entry) []byte {
	var b, prev []byte
	for i, e := range entries {
		shared := 0
		if i > 0 {
			shared = sharedPrefixLen(prev, e.Key)
		}
		b = appendEntry(b, e, shared)
		prev = e.Key
	}
	return b
}

// decodeBlock decodes every entry of block b, copying each.
func decodeBlock(b []byte, legacy bool) ([]base.Entry, error) {
	var out []base.Entry
	var key []byte
	for off := 0; off < len(b); {
		e, next, err := decodeEntry(b, off, key, legacy)
		if err != nil {
			return out, err
		}
		out = append(out, e.Clone())
		off, key = next, e.Key
	}
	return out, nil
}

func sameEntries(a, b []base.Entry) bool {
	return slices.EqualFunc(a, b, func(x, y base.Entry) bool {
		return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Value, y.Value) && x.Seq == y.Seq && x.Kind == y.Kind
	})
}

// TestBlockCodecRoundTrip: a block decodes to the entries it was encoded
// from whatever its keys share — nothing, a whole previous key, all but
// the last byte, a key longer than 127 bytes — with empty values and
// tombstones among them, and each key costs only its own suffix.
func TestBlockCodecRoundTrip(t *testing.T) {
	long := bytes.Repeat([]byte("p"), 200)
	cases := map[string][]base.Entry{
		"no shared prefix": {
			{Key: []byte("apple"), Value: []byte("1"), Seq: 1, Kind: base.KindSet},
			{Key: []byte("banana"), Value: []byte("2"), Seq: 2, Kind: base.KindSet},
			{Key: []byte("cherry"), Value: []byte("3"), Seq: 3, Kind: base.KindSet},
		},
		"whole-key prefix": {
			{Key: []byte("abc"), Value: []byte("1"), Seq: 7, Kind: base.KindSet},
			{Key: []byte("abcd"), Value: []byte("2"), Seq: 1 << 40, Kind: base.KindSet},
			{Key: []byte("abcde"), Value: []byte("3"), Seq: 9, Kind: base.KindSet},
		},
		"empty values and tombstones": {
			{Key: []byte("k1"), Value: nil, Seq: 4, Kind: base.KindDelete},
			{Key: []byte("k2"), Value: []byte{}, Seq: 5, Kind: base.KindSet},
			{Key: []byte("k3"), Value: []byte("v"), Seq: 6, Kind: base.KindSet},
			{Key: []byte("k4"), Seq: 8, Kind: base.KindDelete},
		},
		"long shared prefixes": {
			{Key: append(slices.Clone(long), 'a'), Value: []byte("x"), Seq: 1, Kind: base.KindSet},
			{Key: append(slices.Clone(long), 'b'), Value: []byte("y"), Seq: 2, Kind: base.KindDelete},
			{Key: append(slices.Clone(long), 'b', 'c'), Value: bytes.Repeat([]byte("z"), 300), Seq: 3, Kind: base.KindSet},
		},
	}
	for name, entries := range cases {
		b := encodeBlock(entries)
		got, err := decodeBlock(b, false)
		if err != nil || !sameEntries(got, entries) {
			t.Fatalf("%s: decoded %+v, %v; want %+v", name, got, err, entries)
		}
		var whole []byte
		for _, e := range entries {
			whole = appendLegacyEntry(whole, e)
		}
		if saved := len(whole) - len(b); name != "no shared prefix" && saved <= 0 {
			t.Fatalf("%s: shared prefixes saved %d bytes", name, saved)
		}
		if got, err := decodeBlock(whole, true); err != nil || !sameEntries(got, entries) {
			t.Fatalf("%s: legacy block decoded %+v, %v", name, got, err)
		}
	}
}

// appendLegacyEntry is the entry layout of tables written before prefix
// elision (footerMagicV2), which readers still decode.
func appendLegacyEntry(dst []byte, e base.Entry) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(e.Key)))
	dst = binary.AppendUvarint(dst, uint64(len(e.Value)))
	dst = append(dst, e.Key...)
	return append(dst, e.Value...)
}

// TestTableAcrossBlocks: keys that share long prefixes, tombstones and
// empty values, written through blocks of 64 bytes so that prefixes run
// across block boundaries, read back by Get, a full scan, SeekGE to every
// key and a merge iterator whose entries are all kept to its end; every
// block's first key is stored whole.
func TestTableAcrossBlocks(t *testing.T) {
	fs := vfs.NewMemFS()
	w, err := NewWriter(fs, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	var want []base.Entry
	for i := 0; i < 400; i++ {
		e := base.Entry{Key: []byte(fmt.Sprintf("user/%04d/profile", i)), Value: []byte(fmt.Sprintf("v%d", i)), Seq: uint64(1000 + i), Kind: base.KindSet}
		switch i % 7 {
		case 3:
			e.Kind, e.Value = base.KindDelete, nil
		case 5:
			e.Value = nil
		}
		want = append(want, e)
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Add(base.Entry{Key: []byte("zz"), Kind: 9}); err == nil {
		t.Fatal("Add took an entry of an unknown kind")
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.index) < 20 {
		t.Fatalf("%d blocks; the test needs many", len(r.index))
	}
	for _, ie := range r.index {
		blk, err := readBlock(r.f, ie.handle)
		if err != nil {
			t.Fatal(err)
		}
		if first, _ := uvarintAt(blk, 0); first>>kindBits != 0 {
			t.Fatalf("block at %d: first entry shares %d bytes", ie.handle.offset, first>>kindBits)
		}
	}
	for _, e := range want {
		got, found, _, err := r.Get(e.Key, nil)
		if err != nil || !found || !sameEntries([]base.Entry{got}, []base.Entry{e}) {
			t.Fatalf("Get(%s) = %+v, %v, %v", e.Key, got, found, err)
		}
		it, _ := r.NewIterator()
		if !it.SeekGE(e.Key) || !bytes.Equal(it.Entry().Key, e.Key) {
			t.Fatalf("SeekGE(%s) = %s, %v", e.Key, it.Entry().Key, it.Err())
		}
	}
	if _, found, _, err := r.Get([]byte("user/0100/profile!"), nil); found || err != nil {
		t.Fatalf("Get of an absent key between two: found %v, %v", found, err)
	}
	it, _ := r.NewIterator()
	var scanned []base.Entry
	for it.Next() {
		scanned = append(scanned, it.Entry())
	}
	if it.Err() != nil || !sameEntries(scanned, want) {
		t.Fatalf("scan: %d entries, %v", len(scanned), it.Err())
	}
	var m Merge
	defer m.Close()
	mit, _ := r.NewMergeIterator(&m)
	var kept []base.Entry // never copied: a merge's entries outlive Next
	for mit.Next() {
		kept = append(kept, mit.Entry())
	}
	if mit.Err() != nil || !sameEntries(kept, want) {
		t.Fatalf("merge iterator: %d entries kept, %v", len(kept), mit.Err())
	}
}

// TestBlockTruncationsFail: every cut of a valid block either ends
// between two entries, and decodes to the ones before it, or returns an
// error.
func TestBlockTruncationsFail(t *testing.T) {
	entries := []base.Entry{
		{Key: []byte("key-0001"), Value: []byte("one"), Seq: 300, Kind: base.KindSet},
		{Key: []byte("key-0002"), Seq: 301, Kind: base.KindDelete},
		{Key: []byte("key-0002a"), Value: bytes.Repeat([]byte("v"), 200), Seq: 1 << 30, Kind: base.KindSet},
	}
	b := encodeBlock(entries)
	ends := map[int]int{0: 0} // entry boundary → entries before it
	for i := range entries {
		ends[len(encodeBlock(entries[:i+1]))] = i + 1
	}
	for cut := 0; cut < len(b); cut++ {
		got, err := decodeBlock(b[:cut], false)
		if n, ok := ends[cut]; ok {
			if err != nil || !sameEntries(got, entries[:n]) {
				t.Fatalf("cut at entry boundary %d: %d entries, %v", cut, len(got), err)
			}
		} else if err == nil {
			t.Fatalf("cut at %d of %d decoded cleanly to %d entries", cut, len(b), len(got))
		}
	}
}

// FuzzDecodeBlock: no block, however corrupt, makes the decoder panic or
// read past the block; one that decodes cleanly encodes back to a block
// that decodes to the same entries.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(encodeBlock([]base.Entry{
		{Key: []byte("abc"), Value: []byte("1"), Seq: 1, Kind: base.KindSet},
		{Key: []byte("abcd"), Seq: 2, Kind: base.KindDelete},
		{Key: []byte("abd"), Value: []byte{}, Seq: 3, Kind: base.KindSet},
	}), false)
	f.Add(appendLegacyEntry(nil, base.Entry{Key: []byte("k"), Value: []byte("v"), Seq: 5, Kind: base.KindSet}), true)
	f.Add([]byte{0x05, 0x01, 0x01, 0x00, 'x'}, false) // shares a byte with no previous key
	f.Add([]byte{0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}, false)
	f.Fuzz(func(t *testing.T, b []byte, legacy bool) {
		got, err := decodeBlock(b, legacy)
		if err != nil || legacy {
			return // a legacy entry's kind byte need not fit the current layout
		}
		again, err := decodeBlock(encodeBlock(got), false)
		if err != nil || !sameEntries(again, got) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %+v, %v", b, got, again, err)
		}
	})
}

// clIndexOverLog writes a 1 MiB commit log of records with 8-byte keys
// (big-endian, drawn from 250 000, as the registered benchmark's are) and
// 255-byte values, and a CL-SSTable over its latest version of each key,
// and returns the table's bytes and entries.
func clIndexOverLog(t *testing.T) (int64, int) {
	t.Helper()
	fs := vfs.NewMemFS()
	lw, err := wal.NewWriter(fs, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		key []byte
		off int64
		seq uint64
	}
	latest := map[string]rec{}
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 255)
	seq := uint64(1 << 20) // a store some way into its life
	for size := 0; size < 1<<20; {
		k := binary.BigEndian.AppendUint64(nil, uint64(rng.Intn(250_000)))
		seq++
		off, n, err := lw.Append(base.Entry{Key: k, Value: val, Seq: seq, Kind: base.KindSet})
		if err != nil {
			t.Fatal(err)
		}
		size += n
		latest[string(k)] = rec{k, off, seq}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	recs := slices.SortedFunc(func(yield func(rec) bool) {
		for _, r := range latest {
			if !yield(r) {
				return
			}
		}
	}, func(a, b rec) int { return bytes.Compare(a.key, b.key) })
	cw, err := NewCLWriter(fs, 10, []uint64{5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := cw.Add(r.key, r.seq, base.KindSet, 5, r.off); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := OpenCLWithCache(fs, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	it, _ := cl.NewIterator()
	defer it.Close()
	for i := 0; it.Next(); i++ {
		if e := it.Entry(); !bytes.Equal(e.Key, recs[i].key) || e.Seq != recs[i].seq || len(e.Value) != len(val) {
			t.Fatalf("entry %d = %x@%d, want %x@%d", i, e.Key, e.Seq, recs[i].key, recs[i].seq)
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return n, len(recs)
}

// TestCLIndexBytesPerEntry pins what TRIAD-LOG writes per flushed key: a
// CL-SSTable over a 1 MiB log of paper-sized records (8-byte keys, 255-byte
// values) costs at most half the bytes per entry of the format with whole
// keys, 8-byte offsets and a stored 4 KiB sketch, which took 24.50 bytes
// per entry on the same log.
func TestCLIndexBytesPerEntry(t *testing.T) {
	const wholeKeys = 24.50
	n, entries := clIndexOverLog(t)
	per := float64(n) / float64(entries)
	t.Logf("%d entries, %d bytes: %.2f bytes per entry", entries, n, per)
	if per > wholeKeys/2 {
		t.Fatalf("the CL index takes %.2f bytes per entry, more than half of %.2f", per, wholeKeys)
	}
}

// TestBuildSketchIsTheWritersSketch: a sketch built from the keys a
// table's NewIndexIterator yields is the sketch adding each key once, in
// order, makes — the one the engine makes as it writes an L0 table — for
// a classic table and a CL-SSTable's index alike, so TRIAD-DISK's overlap
// estimates do not change when a store reopens.
func TestBuildSketchIsTheWritersSketch(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildTable(t, fs, 1, 3000)
	defer r.Close()
	cl := buildCL(t, fs, 2, 3, 2000)
	defer cl.Close()
	for _, tc := range []struct {
		tab  Table
		keys int
	}{{r, 3000}, {cl, 2000}} {
		want := hll.MustNew(hll.DefaultPrecision)
		for i := 0; i < tc.keys; i++ {
			want.Add([]byte(fmt.Sprintf("key-%05d", i)))
		}
		got := indexSketch(t, tc.tab)
		if got.Count() != want.Count() || got.Estimate() != want.Estimate() {
			t.Fatalf("table %d: built sketch counts %d, estimates %d; the writer's %d, %d", tc.tab.ID(), got.Count(), got.Estimate(), want.Count(), want.Estimate())
		}
		// Equal registers: the union with the writer's sketch estimates
		// the same number of keys.
		union := got.Clone()
		if err := union.Merge(want); err != nil || union.Estimate() != want.Estimate() {
			t.Fatalf("table %d: the union with the writer's sketch estimates %d, not %d", tc.tab.ID(), union.Estimate(), want.Estimate())
		}
	}
}
