package wal

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/base"
	"repro/internal/vfs"
)

func TestAppendReplay(t *testing.T) {
	fs := vfs.NewMemFS()
	w, err := NewWriter(fs, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	var wantOffsets []int64
	for i := 0; i < 100; i++ {
		off, n, err := w.Append(base.Entry{
			Key:   []byte(fmt.Sprintf("key-%03d", i)),
			Value: []byte(fmt.Sprintf("value-%d", i)),
			Seq:   uint64(i + 1),
			Kind:  base.KindSet,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatal("Append reported zero bytes")
		}
		wantOffsets = append(wantOffsets, off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got int
	err = Replay(fs, 7, func(e base.Entry, off int64) error {
		if off != wantOffsets[got] {
			t.Fatalf("record %d replayed at offset %d, want %d", got, off, wantOffsets[got])
		}
		if string(e.Key) != fmt.Sprintf("key-%03d", got) || e.Seq != uint64(got+1) {
			t.Fatalf("record %d mismatch: %q seq %d", got, e.Key, e.Seq)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("replayed %d records, want 100", got)
	}
}

func TestReadRecordAt(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, false)
	type rec struct {
		off int64
		e   base.Entry
	}
	var recs []rec
	for i := 0; i < 50; i++ {
		e := base.Entry{
			Key:   []byte(fmt.Sprintf("k%02d", i)),
			Value: []byte(fmt.Sprintf("v%d", i*i)),
			Seq:   uint64(i),
			Kind:  base.KindSet,
		}
		off, _, err := w.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{off, e})
	}
	w.Close()
	f, err := fs.Open(FileName(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Random access in reverse order (TRIAD-LOG's access pattern).
	for i := len(recs) - 1; i >= 0; i-- {
		e, _, err := ReadRecordAt(f, recs[i].off)
		if err != nil {
			t.Fatal(err)
		}
		if string(e.Key) != string(recs[i].e.Key) || string(e.Value) != string(recs[i].e.Value) || e.Seq != recs[i].e.Seq {
			t.Fatalf("record %d mismatch: got %q=%q seq %d", i, e.Key, e.Value, e.Seq)
		}
	}
}

func TestTombstoneRecord(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, false)
	off, _, err := w.Append(base.Entry{Key: []byte("gone"), Seq: 9, Kind: base.KindDelete})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, _ := fs.Open(FileName(1))
	defer f.Close()
	e, _, err := ReadRecordAt(f, off)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != base.KindDelete || e.Value != nil {
		t.Fatalf("tombstone decoded as %v %q", e.Kind, e.Value)
	}
}

func TestReplayTornTail(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, false)
	for i := 0; i < 10; i++ {
		w.Append(base.Entry{Key: []byte{byte('a' + i)}, Value: []byte("v"), Seq: uint64(i), Kind: base.KindSet})
	}
	w.Close()
	// Simulate a torn write: append garbage that is not a full record.
	f, _ := fs.Open(FileName(1))
	size, _ := f.Size()
	f.Close()
	wf, _ := fs.Create(FileName(1) + ".tmp")
	orig, _ := fs.Open(FileName(1))
	buf := make([]byte, size)
	orig.ReadAt(buf, 0)
	orig.Close()
	wf.Write(buf)
	wf.Write([]byte{0xde, 0xad, 0xbe}) // 3 garbage bytes: short header
	wf.Close()
	fs.Rename(FileName(1)+".tmp", FileName(1))

	var count int
	if err := Replay(fs, 1, func(e base.Entry, _ int64) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("replayed %d records, want 10 (torn tail dropped)", count)
	}
}

func TestReplayCorruptRecordStops(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, false)
	var offs []int64
	for i := 0; i < 5; i++ {
		off, _, _ := w.Append(base.Entry{Key: []byte{byte('a' + i)}, Value: []byte("v"), Seq: uint64(i), Kind: base.KindSet})
		offs = append(offs, off)
	}
	w.Close()
	// Flip a byte in record 3's payload.
	f, _ := fs.Open(FileName(1))
	size, _ := f.Size()
	buf := make([]byte, size)
	f.ReadAt(buf, 0)
	f.Close()
	buf[offs[3]+headerSize] ^= 0xff
	wf, _ := fs.Create(FileName(1))
	wf.Write(buf)
	wf.Close()

	var count int
	if err := Replay(fs, 1, func(e base.Entry, _ int64) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("replayed %d records, want 3 (stop at corruption)", count)
	}
	// Direct read of the corrupt record reports ErrCorrupt.
	rf, _ := fs.Open(FileName(1))
	defer rf.Close()
	if _, _, err := ReadRecordAt(rf, offs[3]); err != ErrCorrupt {
		t.Fatalf("ReadRecordAt corrupt = %v, want ErrCorrupt", err)
	}
}

func TestReplayMissingFile(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := Replay(fs, 42, func(base.Entry, int64) error { return nil }); err == nil {
		t.Fatal("Replay of missing log succeeded")
	}
}

// TestQuickRoundTrip: arbitrary key/value bytes survive append + replay.
func TestQuickRoundTrip(t *testing.T) {
	check := func(pairs [][2][]byte) bool {
		fs := vfs.NewMemFS()
		w, err := NewWriter(fs, 1, false)
		if err != nil {
			return false
		}
		var want []base.Entry
		for i, p := range pairs {
			k := p[0]
			if len(k) == 0 {
				k = []byte{0}
			}
			e := base.Entry{Key: k, Value: p[1], Seq: uint64(i), Kind: base.KindSet}
			if len(p[1]) == 0 {
				e.Value = nil
			}
			if _, _, err := w.Append(e); err != nil {
				return false
			}
			want = append(want, e)
		}
		w.Close()
		i := 0
		err = Replay(fs, 1, func(e base.Entry, _ int64) error {
			if string(e.Key) != string(want[i].Key) || string(e.Value) != string(want[i].Value) {
				return fmt.Errorf("mismatch at %d", i)
			}
			i++
			return nil
		})
		return err == nil && i == len(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeRecordNeverPanics: DecodeRecord on arbitrary bytes and
// offsets must fail cleanly (error), never panic or over-read.
func TestQuickDecodeRecordNeverPanics(t *testing.T) {
	check := func(blob []byte, off uint16) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %d bytes at offset %d: %v", len(blob), off, r)
			}
		}()
		e, n, err := DecodeRecord(blob, int64(off))
		if err == nil {
			// A parse that succeeds on random bytes must at least be
			// self-consistent.
			if n <= 0 || int(off)+n > len(blob) {
				return false
			}
			_ = e
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRecordMatchesReadRecordAt: both decoders agree on real logs.
func TestDecodeRecordMatchesReadRecordAt(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, false)
	var offs []int64
	for i := 0; i < 50; i++ {
		off, _, _ := w.Append(base.Entry{
			Key:   []byte(fmt.Sprintf("k%02d", i)),
			Value: []byte(fmt.Sprintf("v%d", i)),
			Seq:   uint64(i),
			Kind:  base.KindSet,
		})
		offs = append(offs, off)
	}
	w.Close()
	f, _ := fs.Open(FileName(1))
	defer f.Close()
	size, _ := f.Size()
	img := make([]byte, size)
	f.ReadAt(img, 0)
	for _, off := range offs {
		a, an, aerr := ReadRecordAt(f, off)
		b, bn, berr := DecodeRecord(img, off)
		if (aerr == nil) != (berr == nil) || an != bn {
			t.Fatalf("decoders disagree at %d: %v/%v %d/%d", off, aerr, berr, an, bn)
		}
		if string(a.Key) != string(b.Key) || string(a.Value) != string(b.Value) || a.Seq != b.Seq {
			t.Fatalf("decoded records differ at %d", off)
		}
	}
}

func TestSyncOnAppend(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, true)
	w.Append(base.Entry{Key: []byte("k"), Value: []byte("v"), Seq: 1, Kind: base.KindSet})
	w.Append(base.Entry{Key: []byte("k"), Value: []byte("v"), Seq: 2, Kind: base.KindSet})
	if got := fs.Stats.Syncs.Load(); got != 2 {
		t.Fatalf("Syncs = %d, want 2", got)
	}
	w.Close()
}

func BenchmarkAppend(b *testing.B) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, false)
	e := base.Entry{Key: make([]byte, 8), Value: make([]byte, 255), Kind: base.KindSet}
	b.SetBytes(int64(8 + 255 + 21))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Seq = uint64(i)
		w.Append(e)
	}
}

// batchRecords is n records of varying shape, tombstones included.
func batchRecords(n int) []base.Entry {
	recs := make([]base.Entry, n)
	for i := range recs {
		recs[i] = base.Entry{
			Key:   []byte(fmt.Sprintf("key-%04d", i)),
			Value: bytes.Repeat([]byte{byte(i)}, i%40),
			Seq:   uint64(100 + i),
			Kind:  base.KindSet,
		}
		if i%7 == 3 {
			recs[i].Kind, recs[i].Value = base.KindDelete, nil
		}
	}
	return recs
}

func readAll(t *testing.T, fs vfs.FS, id uint64) []byte {
	t.Helper()
	f, err := fs.Open(FileName(id))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	return buf
}

// TestAppendBatchMatchesAppends: a batch costs one device write and one
// sync, puts on the device exactly the bytes N single Appends put there,
// and returns offsets at which ReadRecordAt and DecodeRecord find each
// record.
func TestAppendBatchMatchesAppends(t *testing.T) {
	recs := batchRecords(64)
	single, batched := vfs.NewMemFS(), vfs.NewMemFS()
	ws, _ := NewWriter(single, 1, true)
	var wantOffs []int64
	var wantBytes int
	for _, e := range recs {
		off, n, err := ws.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		wantOffs = append(wantOffs, off)
		wantBytes += n
	}

	wb, _ := NewWriter(batched, 1, true)
	// Two batches, so the second one's offsets start mid-file.
	offs, n1, err := wb.AppendBatch(recs[:20])
	if err != nil {
		t.Fatal(err)
	}
	gotOffs := append([]int64(nil), offs...)
	offs, n2, err := wb.AppendBatch(recs[20:])
	if err != nil {
		t.Fatal(err)
	}
	gotOffs = append(gotOffs, offs...)
	if n1+n2 != wantBytes || wb.Size() != ws.Size() {
		t.Fatalf("batches appended %d bytes (Size %d), singles %d (Size %d)", n1+n2, wb.Size(), wantBytes, ws.Size())
	}
	if got := batched.Stats.WriteOps.Load(); got != 2 {
		t.Fatalf("two batches cost %d device writes, want 2", got)
	}
	if got := batched.Stats.Syncs.Load(); got != 2 {
		t.Fatalf("two batches cost %d syncs, want 2", got)
	}
	if offs, n, err := wb.AppendBatch(nil); err != nil || n != 0 || len(offs) != 0 || batched.Stats.WriteOps.Load() != 2 {
		t.Fatalf("empty batch = %v, %d, %v and %d device writes", offs, n, err, batched.Stats.WriteOps.Load())
	}
	image := readAll(t, batched, 1)
	if !bytes.Equal(image, readAll(t, single, 1)) {
		t.Fatal("batched log differs from the log of single appends")
	}
	f, _ := batched.Open(FileName(1))
	defer f.Close()
	for i, want := range recs {
		if gotOffs[i] != wantOffs[i] {
			t.Fatalf("record %d at offset %d, single append put it at %d", i, gotOffs[i], wantOffs[i])
		}
		for _, dec := range []func() (base.Entry, int, error){
			func() (base.Entry, int, error) { return ReadRecordAt(f, gotOffs[i]) },
			func() (base.Entry, int, error) { return DecodeRecord(image, gotOffs[i]) },
		} {
			got, _, err := dec()
			if err != nil || !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) || got.Seq != want.Seq || got.Kind != want.Kind {
				t.Fatalf("record %d decoded as %+v, %v; want %+v", i, got, err, want)
			}
		}
	}
}

// TestReplayBatchTornMidRecord: a crash in the middle of a batch's one
// device write leaves a prefix of its records and one torn record. Replay
// keeps everything before the tear — earlier batches and the whole
// records of the torn one — and delivers no part of the torn record, at
// whichever byte the write was cut.
func TestReplayBatchTornMidRecord(t *testing.T) {
	recs := batchRecords(30)
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, false)
	if _, _, err := w.AppendBatch(recs[:10]); err != nil {
		t.Fatal(err)
	}
	offs, _, err := w.AppendBatch(recs[10:])
	if err != nil {
		t.Fatal(err)
	}
	offs = append(append([]int64(nil), offs...), w.Size())
	image := readAll(t, fs, 1)
	for j := 0; j < 20; j++ { // tear inside record 10+j of the log
		for _, cut := range []int64{offs[j] + 1, offs[j] + headerSize, offs[j+1] - 1} {
			if cut <= offs[j] || cut >= offs[j+1] {
				continue // a record too short to cut there
			}
			torn, _ := fs.Create(FileName(2))
			torn.Write(image[:cut])
			torn.Close()
			var got int
			err := Replay(fs, 2, func(e base.Entry, off int64) error {
				want := recs[got]
				if !bytes.Equal(e.Key, want.Key) || !bytes.Equal(e.Value, want.Value) || e.Seq != want.Seq {
					t.Fatalf("cut at %d: record %d replayed as %+v", cut, got, e)
				}
				got++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != 10+j {
				t.Fatalf("cut at %d inside record %d: replayed %d records", cut, 10+j, got)
			}
		}
	}
}

// TestAppendBatchFailedWrite: a refused write appends nothing, and the
// next batch lands where the refused one would have.
func TestAppendBatchFailedWrite(t *testing.T) {
	recs := batchRecords(8)
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, 1, false)
	fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
		if op.Kind == vfs.OpWrite {
			return vfs.ErrInjected
		}
		return nil
	}})
	if _, n, err := w.AppendBatch(recs); err == nil || n != 0 || w.Size() != 0 {
		t.Fatalf("refused batch = %d bytes, %v, Size %d", n, err, w.Size())
	}
	fs.SetHooks(vfs.Hooks{})
	offs, _, err := w.AppendBatch(recs)
	if err != nil || offs[0] != 0 {
		t.Fatalf("batch after a refused one at %v, %v", offs, err)
	}
	var got int
	if err := Replay(fs, 1, func(base.Entry, int64) error { got++; return nil }); err != nil || got != len(recs) {
		t.Fatalf("replayed %d records, %v; want %d", got, err, len(recs))
	}
}
