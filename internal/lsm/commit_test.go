package lsm

import (
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/vfs"
)

func openCommitTestDB(t *testing.T) *DB {
	t.Helper()
	return mustOpen(t, TriadOptions(vfs.NewMemFS()))
}

// TestCommitAtExternalSequence: CommitAt and WriteAt commit at the given
// sequence and the per-DB counter becomes a view of it; the batch is then
// marked committed and refused a second time. A regressing or zero
// sequence, or an empty key, is rejected without committing anything.
func TestCommitAtExternalSequence(t *testing.T) {
	db := openCommitTestDB(t)
	b := &Batch{}
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	if err := db.CommitAt(10, b, nil); err != nil {
		t.Fatal(err)
	}
	if got := db.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	if !b.Committed() {
		t.Fatal("batch not marked committed")
	}
	if err := db.CommitAt(12, b, nil); err == nil || !strings.Contains(err.Error(), "already applied") {
		t.Fatalf("re-commit of a committed batch = %v, want already-applied error", err)
	}
	if err := db.WriteAt(11, []byte("c"), []byte("3"), base.KindSet); err != nil {
		t.Fatal(err)
	}
	if got := db.LastSeq(); got != 11 {
		t.Fatalf("LastSeq after WriteAt = %d, want 11", got)
	}
	// Regressing sequence: rejected, nothing written.
	bad := &Batch{}
	bad.Put([]byte("a"), []byte("overwrite"))
	err := db.CommitAt(11, bad, nil)
	if err == nil || !strings.Contains(err.Error(), "not after") {
		t.Fatalf("CommitAt(11) after 11 = %v, want sequence-regression error", err)
	}
	if err := db.WriteAt(11, []byte("a"), []byte("overwrite"), base.KindSet); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Fatalf("WriteAt(11) after 11 = %v, want sequence-regression error", err)
	}
	// Zero sequence: the engine numbers nothing itself, so both entry
	// points refuse it.
	if err := db.CommitAt(0, bad, nil); err == nil || !strings.Contains(err.Error(), "non-zero") {
		t.Fatalf("CommitAt(0) = %v, want zero-sequence error", err)
	}
	if err := db.WriteAt(0, []byte("a"), []byte("overwrite"), base.KindSet); err == nil || !strings.Contains(err.Error(), "non-zero") {
		t.Fatalf("WriteAt(0) = %v, want zero-sequence error", err)
	}
	if bad.Committed() {
		t.Fatal("rejected batch marked committed")
	}
	var empty Batch
	empty.Put(nil, []byte("v"))
	if err := db.CommitAt(12, &empty, nil); err == nil || !strings.Contains(err.Error(), "empty key") {
		t.Fatalf("empty-key batch = %v, want empty-key error", err)
	}
	if v, err := db.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v; want 1", v, err)
	}
	if got, writes := db.LastSeq(), db.Metrics().UserWrites; got != 11 || writes != 3 {
		t.Fatalf("after the refused commits LastSeq = %d and %d writes, want 11 and 3", got, writes)
	}
}

// TestApplyStillSelfSequences: a batch applied through the clock the
// tests share commits at LastSeq()+1 with the engine's checks in force —
// it is marked committed, refused a second time, and an empty key is
// rejected — so the tests built on that clock run the engine's own rules.
func TestApplyStillSelfSequences(t *testing.T) {
	db := openCommitTestDB(t)
	c := clocked(db)
	b := &Batch{}
	b.Put([]byte("p"), []byte("q"))
	if err := c.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := db.LastSeq(); got != 1 {
		t.Fatalf("LastSeq = %d, want 1", got)
	}
	if !b.Committed() {
		t.Fatal("batch not marked committed")
	}
	if err := c.Apply(b); err == nil {
		t.Fatal("re-Apply of committed batch succeeded")
	}
	var empty Batch
	empty.Put(nil, []byte("v"))
	if err := c.Apply(&empty); err == nil || !strings.Contains(err.Error(), "empty key") {
		t.Fatalf("empty-key batch = %v, want empty-key error", err)
	}
	if got := db.LastSeq(); got != 1 {
		t.Fatalf("LastSeq after the refused batches = %d, want 1", got)
	}
}

// TestCommitAtBatchSharesSequence: every record of a batch commits at
// the batch's one sequence — a snapshot pinned at or above it sees the
// whole batch, one pinned below sees none of it.
func TestCommitAtBatchSharesSequence(t *testing.T) {
	db := openCommitTestDB(t)
	init := &Batch{}
	init.Put([]byte("x"), []byte("old"))
	init.Put([]byte("y"), []byte("old"))
	if err := db.CommitAt(5, init, nil); err != nil {
		t.Fatal(err)
	}
	before, err := db.NewSnapshotAt(7)
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()

	b := &Batch{}
	b.Put([]byte("x"), []byte("new"))
	b.Put([]byte("y"), []byte("new"))
	if err := db.CommitAt(8, b, nil); err != nil {
		t.Fatal(err)
	}
	after, err := db.NewSnapshotAt(8)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()

	for _, k := range []string{"x", "y"} {
		if v, err := before.Get([]byte(k)); err != nil || string(v) != "old" {
			t.Fatalf("before.Get(%s) = %q, %v; want old", k, v, err)
		}
		if v, err := after.Get([]byte(k)); err != nil || string(v) != "new" {
			t.Fatalf("after.Get(%s) = %q, %v; want new", k, v, err)
		}
	}
}

// TestNewSnapshotAtBounds: a pin below the last committed sequence is
// an error (the view is gone); a pin above it is a valid future epoch
// that filters later writes.
func TestNewSnapshotAtBounds(t *testing.T) {
	db := openCommitTestDB(t)
	b := &Batch{}
	b.Put([]byte("k"), []byte("v1"))
	if err := db.CommitAt(20, b, nil); err != nil {
		t.Fatal(err)
	}
	if s19, err := db.NewSnapshotAt(19); err == nil {
		s19.Close()
		t.Fatal("NewSnapshotAt(19) after commit 20 succeeded, want error")
	}
	s, err := db.NewSnapshotAt(25)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A later commit (epoch 30 > pin 25) is invisible, and the pinned
	// version of the in-place-overwritten key stays behind the new entry.
	b2 := &Batch{}
	b2.Put([]byte("k"), []byte("v2"))
	if err := db.CommitAt(30, b2, nil); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get([]byte("k")); err != nil || string(v) != "v1" {
		t.Fatalf("snapshot Get = %q, %v; want v1", v, err)
	}
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("live Get = %q, %v; want v2", v, err)
	}
}
