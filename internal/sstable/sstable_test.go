package sstable

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/base"
	"repro/internal/hll"
	"repro/internal/vfs"
	"repro/internal/wal"
)

func buildTable(t testing.TB, fs vfs.FS, id uint64, n int) *Reader {
	t.Helper()
	w, err := NewWriter(fs, id, 512) // small blocks to exercise the index
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := base.Entry{
			Key:   []byte(fmt.Sprintf("key-%05d", i)),
			Value: []byte(fmt.Sprintf("value-%d", i*3)),
			Seq:   uint64(i + 1),
			Kind:  base.KindSet,
		}
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fs, id)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildTable(t, fs, 1, 1000)
	defer r.Close()
	if r.NumEntries() != 1000 {
		t.Fatalf("NumEntries = %d", r.NumEntries())
	}
	if string(r.props.smallest) != "key-00000" || string(r.props.largest) != "key-00999" {
		t.Fatalf("bounds = %q..%q", r.props.smallest, r.props.largest)
	}
	for _, i := range []int{0, 1, 499, 500, 998, 999} {
		key := []byte(fmt.Sprintf("key-%05d", i))
		e, found, p, err := r.Get(key, nil)
		if err != nil || !found {
			t.Fatalf("Get(%s) = found=%v err=%v", key, found, err)
		}
		if string(e.Value) != fmt.Sprintf("value-%d", i*3) {
			t.Fatalf("Get(%s) value = %q", key, e.Value)
		}
		if p != (Probe{BlockReads: 1}) {
			t.Fatalf("Get(%s) cost %+v, want one block read", key, p)
		}
	}
}

func TestGetAbsent(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildTable(t, fs, 1, 100)
	defer r.Close()
	// Out of range: no filter probe, zero disk reads.
	_, found, p, _ := r.Get([]byte("aaa"), nil)
	if found || p != (Probe{}) {
		t.Fatalf("below-range Get: found=%v cost %+v", found, p)
	}
	_, found, p, _ = r.Get([]byte("zzz"), nil)
	if found || p != (Probe{}) {
		t.Fatalf("above-range Get: found=%v cost %+v", found, p)
	}
	// In range but absent: the Bloom filter should usually skip (0
	// reads, a filter negative); occasionally a false positive costs 1.
	// Never found, and always exactly one of the two.
	fpReads, negatives := 0, 0
	for i := 0; i < 99; i++ {
		_, found, p, err := r.Get([]byte(fmt.Sprintf("key-%05d-x", i)), nil)
		if err != nil || found {
			t.Fatalf("absent Get: found=%v err=%v", found, err)
		}
		if p.FilterNegative == p.FalsePositive || p.FalsePositive != (p.Reads() == 1) {
			t.Fatalf("an absent in-range probe cost %+v", p)
		}
		if p.FilterNegative {
			negatives++
		}
		fpReads += p.Reads()
	}
	if fpReads > 10 || negatives+fpReads != 99 {
		t.Fatalf("99 absent in-range probes: %d filter negatives, %d reads; bloom filter broken?", negatives, fpReads)
	}
}

func TestIteratorFullScan(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildTable(t, fs, 1, 500)
	defer r.Close()
	it, err := r.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.Next() {
		want := fmt.Sprintf("key-%05d", i)
		if string(it.Entry().Key) != want {
			t.Fatalf("entry %d = %q, want %q", i, it.Entry().Key, want)
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 500 {
		t.Fatalf("iterated %d entries, want 500", i)
	}
}

func TestIteratorSeekGE(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildTable(t, fs, 1, 500)
	defer r.Close()
	it, _ := r.NewIterator()
	defer it.Close()
	if !it.SeekGE([]byte("key-00250")) || string(it.Entry().Key) != "key-00250" {
		t.Fatalf("SeekGE exact failed: %q", it.Entry().Key)
	}
	if !it.SeekGE([]byte("key-00250a")) || string(it.Entry().Key) != "key-00251" {
		t.Fatalf("SeekGE between failed: %q", it.Entry().Key)
	}
	if !it.SeekGE([]byte("a")) || string(it.Entry().Key) != "key-00000" {
		t.Fatalf("SeekGE before-first failed: %q", it.Entry().Key)
	}
	if it.SeekGE([]byte("zzz")) {
		t.Fatal("SeekGE past-end succeeded")
	}
}

func TestOutOfOrderAddFails(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, 0)
	if err := w.Add(base.Entry{Key: []byte("b"), Kind: base.KindSet}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(base.Entry{Key: []byte("a"), Kind: base.KindSet}); err == nil {
		t.Fatal("out-of-order Add succeeded")
	}
	if err := w.Add(base.Entry{Key: []byte("b"), Kind: base.KindSet}); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	w.Abort(fs)
	if fs.Exists(FileName(1)) {
		t.Fatal("Abort left the file behind")
	}
}

func TestTombstonesRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, 0)
	w.Add(base.Entry{Key: []byte("alive"), Value: []byte("v"), Seq: 1, Kind: base.KindSet})
	w.Add(base.Entry{Key: []byte("dead"), Seq: 2, Kind: base.KindDelete})
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e, found, _, err := r.Get([]byte("dead"), nil)
	if err != nil || !found || e.Kind != base.KindDelete || e.Value != nil {
		t.Fatalf("tombstone Get = %+v found=%v err=%v", e, found, err)
	}
}

// indexSketch makes the sketch of tab's keys the way the engine remakes
// an L0 table's at recovery: every key NewIndexIterator yields, once, in
// order.
func indexSketch(t *testing.T, tab Table) *hll.Sketch {
	t.Helper()
	s := hll.MustNew(hll.DefaultPrecision)
	it := tab.NewIndexIterator()
	defer it.Close()
	for it.Next() {
		s.Add(it.Entry().Key)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSketchSurvives: a table keeps every key a sketch of it needs, so a
// sketch remade from its index counts and estimates the keys written.
func TestSketchSurvives(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildTable(t, fs, 1, 5000)
	defer r.Close()
	s := indexSketch(t, r)
	est := float64(s.Estimate())
	if est < 4500 || est > 5500 {
		t.Fatalf("remade sketch estimate = %.0f, want ≈5000", est)
	}
	if s.Count() != 5000 {
		t.Fatalf("remade sketch count = %d", s.Count())
	}
}

func TestOpenErrors(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, err := Open(fs, 99); err == nil {
		t.Fatal("Open missing table succeeded")
	}
	// Too-short file.
	f, _ := fs.Create(FileName(2))
	f.Write([]byte("tiny"))
	f.Close()
	if _, err := Open(fs, 2); err == nil {
		t.Fatal("Open truncated table succeeded")
	}
	// Bad magic.
	f, _ = fs.Create(FileName(3))
	f.Write(make([]byte, 100))
	f.Close()
	if _, err := Open(fs, 3); err == nil {
		t.Fatal("Open corrupt table succeeded")
	}
}

// --- CL-SSTable ---

// buildCL writes n entries through a WAL and builds a CL-SSTable over it,
// mirroring what a TRIAD-LOG flush does.
func buildCL(t testing.TB, fs vfs.FS, clID, logID uint64, n int) *CLReader {
	t.Helper()
	lw, err := wal.NewWriter(fs, logID, false)
	if err != nil {
		t.Fatal(err)
	}
	type pos struct {
		off  int64
		kind base.Kind
		seq  uint64
	}
	latest := map[string]pos{}
	seq := uint64(0)
	// Two updates per key so the log holds stale versions, like reality.
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			seq++
			key := fmt.Sprintf("key-%05d", i)
			kind := base.KindSet
			val := []byte(fmt.Sprintf("r%d-value-%d", round, i))
			if round == 1 && i%10 == 0 {
				kind = base.KindDelete
				val = nil
			}
			off, _, err := lw.Append(base.Entry{Key: []byte(key), Value: val, Seq: seq, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			latest[key] = pos{off, kind, seq}
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	cw, err := NewCLWriter(fs, clID, []uint64{logID}, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i)
		p := latest[key]
		if err := cw.Add([]byte(key), p.seq, p.kind, logID, p.off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCLWithCache(fs, clID, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCLSSTableGet(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildCL(t, fs, 10, 5, 200)
	defer r.Close()
	if ids := r.LogIDs(); len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("LogIDs = %v", ids)
	}
	e, found, p, err := r.Get([]byte("key-00007"), nil)
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	if string(e.Value) != "r1-value-7" {
		t.Fatalf("Get returned stale value %q", e.Value)
	}
	if p != (Probe{BlockReads: 1, LogReads: 1}) { // one index block + one log record
		t.Fatalf("Get cost %+v, want one block and one log read", p)
	}
	// Deleted key resolves to a tombstone without touching the log.
	e, found, p, err = r.Get([]byte("key-00010"), nil)
	if err != nil || !found || e.Kind != base.KindDelete {
		t.Fatalf("tombstone Get = %+v found=%v err=%v", e, found, err)
	}
	if p != (Probe{BlockReads: 1}) {
		t.Fatalf("tombstone Get cost %+v, want one block read (no log access)", p)
	}
	if _, found, _, _ := r.Get([]byte("nope"), nil); found {
		t.Fatal("absent key found")
	}
}

func TestCLSSTableIterator(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildCL(t, fs, 10, 5, 100)
	defer r.Close()
	it, err := r.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.Next() {
		e := it.Entry()
		want := fmt.Sprintf("key-%05d", i)
		if string(e.Key) != want {
			t.Fatalf("entry %d key = %q", i, e.Key)
		}
		if i%10 == 0 {
			if e.Kind != base.KindDelete {
				t.Fatalf("entry %d should be a tombstone", i)
			}
		} else if string(e.Value) != fmt.Sprintf("r1-value-%d", i) {
			t.Fatalf("entry %d value = %q", i, e.Value)
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 100 {
		t.Fatalf("iterated %d, want 100", i)
	}
	// SeekGE through the CL index.
	if !it.SeekGE([]byte("key-00050")) || string(it.Entry().Key) != "key-00050" {
		t.Fatalf("SeekGE = %q", it.Entry().Key)
	}
}

// TestCLSSTableMuchSmallerThanData checks the premise of TRIAD-LOG: with
// paper-sized records (8 B keys, 255 B values), flushing the index costs a
// small fraction of re-writing the data.
func TestCLSSTableMuchSmallerThanData(t *testing.T) {
	fs := vfs.NewMemFS()
	lw, err := wal.NewWriter(fs, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	offs := make([]int64, n)
	val := bytes.Repeat([]byte{'v'}, 255)
	for i := 0; i < n; i++ {
		off, _, err := lw.Append(base.Entry{Key: []byte(fmt.Sprintf("%08d", i)), Value: val, Seq: uint64(i + 1), Kind: base.KindSet})
		if err != nil {
			t.Fatal(err)
		}
		offs[i] = off
	}
	lw.Close()
	cw, err := NewCLWriter(fs, 10, []uint64{5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cw.Add([]byte(fmt.Sprintf("%08d", i)), uint64(i+1), base.KindSet, 5, offs[i]); err != nil {
			t.Fatal(err)
		}
	}
	idxBytes, err := cw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	logF, _ := fs.Open(wal.FileName(5))
	logSize, _ := logF.Size()
	logF.Close()
	if idxBytes*5 > logSize {
		t.Fatalf("CL index (%d B) not ≤ 1/5 of log (%d B)", idxBytes, logSize)
	}
}

func TestCLOpenWithoutLogFails(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildCL(t, fs, 10, 5, 10)
	r.Close()
	if err := fs.Remove(wal.FileName(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCLWithCache(fs, 10, nil); err == nil {
		t.Fatal("OpenCLWithCache without backing log succeeded")
	}
}

// TestQuickTableRoundTrip: random sorted key sets survive the classic
// table round trip.
func TestQuickTableRoundTrip(t *testing.T) {
	var id uint64
	check := func(n uint16, valSize uint8) bool {
		id++
		fs := vfs.NewMemFS()
		count := int(n%500) + 1
		w, err := NewWriter(fs, id, 256)
		if err != nil {
			return false
		}
		for i := 0; i < count; i++ {
			e := base.Entry{
				Key:   []byte(fmt.Sprintf("%06d", i)),
				Value: bytes.Repeat([]byte{byte(i)}, int(valSize)),
				Seq:   uint64(i + 1),
				Kind:  base.KindSet,
			}
			if valSize == 0 {
				e.Value = nil
			}
			if err := w.Add(e); err != nil {
				return false
			}
		}
		if _, err := w.Finish(); err != nil {
			return false
		}
		r, err := Open(fs, id)
		if err != nil {
			return false
		}
		defer r.Close()
		for i := 0; i < count; i++ {
			e, found, _, err := r.Get([]byte(fmt.Sprintf("%06d", i)), nil)
			if err != nil || !found || len(e.Value) != int(valSize) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableGet(b *testing.B) {
	fs := vfs.NewMemFS()
	r := buildTable(b, fs, 1, 10000)
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i%10000))
		r.Get(key, nil)
	}
}

func BenchmarkCLTableGet(b *testing.B) {
	fs := vfs.NewMemFS()
	r := buildCL(b, fs, 10, 5, 10000)
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i%10000))
		r.Get(key, nil)
	}
}

// TestCLMergeIteratorsShareOneLogImage: however many iterators one merge
// opens over a CL-SSTable, the commit log is read from the device once, all of them decode the same entries a
// plain iterator does, and the next merge over the table reads it again
// (the image goes back to the pool on Close, it is not kept).
func TestCLMergeIteratorsShareOneLogImage(t *testing.T) {
	fs := vfs.NewMemFS()
	r := buildCL(t, fs, 10, 5, 100)
	defer r.Close()
	logSize, _ := r.logs[0].Size()
	entries := func(it Iterator) []string {
		t.Helper()
		defer it.Close()
		var out []string
		for it.Next() {
			e := it.Entry()
			out = append(out, fmt.Sprintf("%s/%d/%d=%s", e.Key, e.Seq, e.Kind, e.Value))
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain, err := r.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	want := entries(plain)

	for round := 0; round < 2; round++ {
		var m Merge
		for i := 0; i < 4; i++ {
			before := fs.Stats.BytesRead.Load()
			it, err := r.NewMergeIterator(&m)
			if err != nil {
				t.Fatal(err)
			}
			// Opening reads no index block, so what it read is log.
			opened := fs.Stats.BytesRead.Load() - before
			if i == 0 && opened != logSize || i > 0 && opened != 0 {
				t.Fatalf("round %d: opening iterator %d read %d bytes, log is %d", round, i, opened, logSize)
			}
			if got := entries(it); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d: merge iterator %d yielded %d entries differing from the plain iterator's %d", round, i, len(got), len(want))
			}
		}
		m.Close()
	}
}

// TestCLMultiLogTable: a CL-SSTable over several logs — what a fold
// writes — resolves every entry against the log it names, through Get,
// a plain iterator and a merge's iterators (which read each log once), and
// its index iterator yields pointers back to the same log and offset. A
// single-log table's properties keep the encoding that predates it.
func TestCLMultiLogTable(t *testing.T) {
	fs := vfs.NewMemFS()
	type rec struct {
		key   string
		log   uint64
		off   int64
		value string
	}
	var recs []rec
	for parity, logID := range []uint64{5, 9} { // log 5: even keys, log 9: odd keys
		lw, err := wal.NewWriter(fs, logID, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if i%2 != parity {
				continue
			}
			key, value := fmt.Sprintf("key-%05d", i), fmt.Sprintf("log%d-%d", logID, i)
			off, _, err := lw.Append(base.Entry{Key: []byte(key), Value: []byte(value), Seq: uint64(i + 1), Kind: base.KindSet})
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec{key, logID, off, value})
		}
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	slices.SortFunc(recs, func(a, b rec) int { return strings.Compare(a.key, b.key) })
	cw, err := NewCLWriter(fs, 20, []uint64{5, 9}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Add([]byte("key-?"), 1, base.KindSet, 7, 0); err == nil {
		t.Fatal("Add accepted a pointer into a log the table does not list")
	}
	for i, r := range recs {
		if err := cw.Add([]byte(r.key), uint64(i+1), base.KindSet, r.log, r.off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCLWithCache(fs, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if ids := r.LogIDs(); fmt.Sprint(ids) != "[5 9]" {
		t.Fatalf("LogIDs = %v", ids)
	}
	for _, want := range recs {
		e, found, _, err := r.Get([]byte(want.key), nil)
		if err != nil || !found || string(e.Value) != want.value {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", want.key, e.Value, found, err, want.value)
		}
	}
	values := func(it Iterator) {
		t.Helper()
		defer it.Close()
		i := 0
		for ; it.Next(); i++ {
			if e := it.Entry(); string(e.Key) != recs[i].key || string(e.Value) != recs[i].value {
				t.Fatalf("entry %d = %s=%s, want %s=%s", i, e.Key, e.Value, recs[i].key, recs[i].value)
			}
		}
		if err := it.Err(); err != nil || i != len(recs) {
			t.Fatalf("iterated %d of %d entries: %v", i, len(recs), err)
		}
	}
	it, err := r.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	values(it)
	var logBytes int64
	for _, l := range r.logs {
		n, _ := l.Size()
		logBytes += n
	}
	if n, err := r.LogBytes(); err != nil || n != logBytes {
		t.Fatalf("LogBytes = %d, %v; the logs hold %d", n, err, logBytes)
	}
	var m Merge
	for i := 0; i < 2; i++ {
		before := fs.Stats.BytesRead.Load()
		it, err := r.NewMergeIterator(&m)
		if err != nil {
			t.Fatal(err)
		}
		if read := fs.Stats.BytesRead.Load() - before; i == 0 && read != logBytes || i > 0 && read != 0 {
			t.Fatalf("merge iterator %d read %d bytes of logs holding %d", i, read, logBytes)
		}
		values(it)
	}
	m.Close()
	idx := r.NewIndexIterator()
	for i := 0; idx.Next(); i++ {
		log, off, err := r.Pointer(idx.Entry().Value)
		if err != nil || log != recs[i].log || off != recs[i].off {
			t.Fatalf("pointer %d = log %d @%d, %v; want log %d @%d", i, log, off, err, recs[i].log, recs[i].off)
		}
	}
	idx.Close()
	if _, _, err := r.Pointer([]byte{1, 2, 3, 4, 5, 6, 7, 8, 2}); err == nil {
		t.Fatal("Pointer accepted a log index past the table's logs")
	}

	one := props{numEntries: 3, smallest: []byte("a"), largest: []byte("c"), logIDs: []uint64{300}}
	old := []byte{3, 1, 'a', 1, 'c', 0xac, 0x02}
	if got := one.encode(); !bytes.Equal(got, old) {
		t.Fatalf("single-log properties encode as %v, want %v", got, old)
	}
	for _, p := range []props{one, {numEntries: 1, smallest: []byte("k"), largest: []byte("k")}, {logIDs: []uint64{5, 9, 12}}} {
		got, err := decodeProps(p.encode())
		if err != nil || fmt.Sprint(got.logIDs) != fmt.Sprint(p.logIDs) {
			t.Fatalf("properties with logs %v decode to %v, %v", p.logIDs, got.logIDs, err)
		}
	}
}
