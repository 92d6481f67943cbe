package lsm

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/base"
	"repro/internal/obs"
)

// Batch collects writes to be applied together. Application is atomic
// with respect to concurrent readers and writers (all records commit at
// one sequence number under one critical section). Recovery atomicity
// follows WAL semantics: only a torn tail — the final records of the
// log — can be lost, so a crash can truncate the batch's suffix but
// never interleave it with other writes.
type Batch struct {
	ops       []base.Entry
	byteSize  int64
	committed bool
}

// Put queues a key/value write.
func (b *Batch) Put(key, value []byte) {
	b.PutEntry(copyEntry(key, value, base.KindSet))
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.PutEntry(copyEntry(key, nil, base.KindDelete))
}

// copyEntry is the defensive copy of a write: key and value share one
// allocation. A nil value stays nil.
func copyEntry(key, value []byte, kind base.Kind) base.Entry {
	kv := make([]byte, len(key)+len(value))
	n := copy(kv, key)
	copy(kv[n:], value)
	e := base.Entry{Key: kv[:n:n], Kind: kind}
	if value != nil {
		e.Value = kv[n:]
	}
	return e
}

// PutEntry queues an already-copied entry without re-copying its key and
// value. It exists for engines that split a batch into per-shard
// sub-batches: the source batch's Put/Delete made the defensive copies,
// so the split must not pay for them twice. The caller must not mutate
// e's slices afterwards.
func (b *Batch) PutEntry(e base.Entry) {
	b.ops = append(b.ops, e)
	b.byteSize += e.Size()
}

// Grow makes room for n more operations, so that queuing them does not
// reallocate the batch.
func (b *Batch) Grow(n int) { b.ops = slices.Grow(b.ops, n) }

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Bytes reports the queued payload size.
func (b *Batch) Bytes() int64 { return b.byteSize }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.byteSize = 0
	b.committed = false
}

// Ops exposes the queued entries, in application order. It exists for
// engines that split a batch across several DB instances (the sharded
// engine); callers must not mutate the returned entries.
func (b *Batch) Ops() []base.Entry { return b.ops }

// Committed reports whether the batch has been applied (and not Reset).
func (b *Batch) Committed() bool { return b.committed }

// MarkCommitted records that an outer engine applied the batch on the
// caller's behalf (the sharded engine applies per-shard sub-batches and
// then marks the original).
func (b *Batch) MarkCommitted() { b.committed = true }

// prepare is the validation stage of the commit pipeline: the batch
// must not already be committed and every key must be non-empty. It
// touches no engine state, so it runs before any lock or sequence is
// taken.
func (b *Batch) prepare() error {
	if b.committed {
		return errors.New("lsm: batch already applied (Reset to reuse)")
	}
	for i := range b.ops {
		if len(b.ops[i].Key) == 0 {
			return errors.New("lsm: empty key in batch")
		}
	}
	return nil
}

// CommitAt commits the batch with every record carrying the externally
// assigned sequence seq. This is the commit stage the sharded engine
// drives: seq is a store-wide epoch from its commit clock, and the
// per-DB sequence counter advances to seq — it becomes a view of that
// clock rather than an independent allocator. seq must exceed every
// sequence previously committed on this DB (the clock's per-shard
// ticket ordering guarantees it); a regressing seq is an error and
// commits nothing, and so is a zero seq. trs are the group's sampled
// request traces, into each of which the engine records aggregated
// wal_append and memtable_apply spans; nil for every untraced group.
func (db *DB) CommitAt(seq uint64, b *Batch, trs obs.Traces) error {
	return db.commit(seq, b, trs)
}

// commit runs the pipeline: prepare (validation, lock-free), then the
// commit stage under db.mu — absorb backpressure, advance the sequence to
// seq, and append to log and memtable.
func (db *DB) commit(seq uint64, b *Batch, trs obs.Traces) error {
	if seq == 0 {
		return errors.New("lsm: a commit requires a non-zero sequence")
	}
	if err := b.prepare(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.bgErr != nil {
		return db.bgErr
	}
	if err := db.stallLocked(); err != nil {
		return err
	}
	if seq <= db.seq {
		return fmt.Errorf("lsm: commit sequence %d is not after the last committed %d", seq, db.seq)
	}
	db.seq = seq
	return db.commitLocked(seq, b, trs)
}

// commitLocked is the write stage: every record is framed into one WAL
// write and then applied to the memtable at sequence seq (one sequence
// for the whole batch — the batch is one commit-order event). Caller
// holds db.mu and has already advanced db.seq to seq. When traces ride
// the batch, the two halves are timed and recorded as one wal_append and
// one memtable_apply span per trace (the group commits as a unit, so
// every rider paid for both).
func (db *DB) commitLocked(seq uint64, b *Batch, trs obs.Traces) error {
	traced := len(trs) > 0
	var t0, t1 time.Time
	if traced {
		t0 = time.Now()
	}
	for i := range b.ops {
		b.ops[i].Seq = seq
	}
	live := db.liveLocked()
	offs, walBytes, err := live.log.AppendBatch(b.ops)
	if err != nil {
		return err
	}
	if traced {
		t1 = time.Now()
	}
	var userBytes int64
	for i := range b.ops {
		e := &b.ops[i]
		live.mem.SetPinned(e.Key, e.Value, seq, e.Kind, live.log.ID(), offs[i], db.pinned)
		userBytes += e.Size()
	}
	db.met.BytesLogged.Add(int64(walBytes))
	db.met.UserWrites.Add(int64(len(b.ops)))
	db.met.UserBytes.Add(userBytes)
	if traced {
		detail := fmt.Sprintf("shard %d, %d ops, %dB", db.opts.EventShard, b.Len(), walBytes)
		trs.SpanAt(obs.SpanWALAppend, t0, t1.Sub(t0), detail)
		trs.SpanAt(obs.SpanMemtableApply, t1, time.Since(t1), detail)
	}
	b.committed = true
	return db.maybeRotateLocked()
}
