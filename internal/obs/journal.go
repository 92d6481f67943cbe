package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventKind classifies a background event.
type EventKind uint8

// The event kinds the engine emits.
const (
	// EventFlush is one memtable flush: In = memtable bytes consumed,
	// Out = bytes written to L0, Detail = what sealed the memtable and how
	// it split. At Level -1 it is a flush TRIAD-MEM skipped: nothing
	// reached L0, the commit log was rewritten, Detail says why.
	EventFlush EventKind = iota
	// EventCompaction is one compaction: In = input table bytes,
	// Out = output table bytes, Level = input level, Files = input count.
	EventCompaction
	// EventSnapshotGC is the zombie-file sweep after a snapshot
	// release: In = on-disk bytes reclaimed, Files = files deleted.
	EventSnapshotGC
	// EventStall is one writer's backpressure wait (flush queue full or
	// L0 at the stop-writes trigger): Dur is how long the writer stood.
	EventStall
	// EventBackgroundError is the first flush or compaction of a shard to
	// fail: the shard's background work stops and every later write
	// returns the error, Detail, until the store is reopened.
	EventBackgroundError
)

// String returns the lower-case kind name.
func (k EventKind) String() string {
	switch k {
	case EventFlush:
		return "flush"
	case EventCompaction:
		return "compaction"
	case EventSnapshotGC:
		return "snapshot-gc"
	case EventStall:
		return "stall"
	case EventBackgroundError:
		return "background-error"
	default:
		return "other"
	}
}

// Event is one structured background event.
type Event struct {
	// Seq numbers events in emission order (1-based, monotonic per
	// Journal) so a reader can detect ring overwrites.
	Seq  uint64
	Time time.Time
	Kind EventKind
	// Shard is the emitting shard's index (0 for unsharded engines).
	Shard int
	// Level is the input level of a compaction; -1 when not applicable.
	Level int
	// Dur is how long the operation took (for stalls: how long the
	// writer waited).
	Dur time.Duration
	// In and Out are the bytes consumed and produced; see the kind
	// constants for each kind's reading.
	In, Out int64
	// Files counts the table files involved (compaction inputs,
	// snapshot-GC deletions).
	Files int
	// Detail is a short free-form annotation ("L0->L1", "log-full: ...").
	Detail string
}

// String renders the event as one greppable line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s shard=%d", e.Seq, e.Time.Format("15:04:05.000"), e.Kind, e.Shard)
	if e.Level >= 0 {
		fmt.Fprintf(&b, " L%d", e.Level)
	}
	fmt.Fprintf(&b, " dur=%s", e.Dur.Round(time.Microsecond))
	if e.Kind != EventStall {
		fmt.Fprintf(&b, " in=%dB out=%dB", e.In, e.Out)
	}
	if e.Files > 0 {
		fmt.Fprintf(&b, " files=%d", e.Files)
	}
	if e.Detail != "" {
		// Detail is free-form engine text; escape it so a binary key
		// echoed into an error detail can't hit the terminal raw.
		fmt.Fprintf(&b, " %s", EscapeText(e.Detail))
	}
	return b.String()
}

// Journal is a fixed-size ring of Events. Add is cheap (one short
// mutex section, no allocation beyond the caller's Detail string) and
// safe for concurrent use; the ring overwrites oldest-first. A nil
// *Journal drops everything.
type Journal struct {
	mu   sync.Mutex
	ring ring[Event]
}

// NewJournal returns a journal keeping the most recent n events.
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = 1024
	}
	return &Journal{ring: newRing[Event](n)}
}

// Add appends e, stamping Seq (and Time when unset). Nil-safe.
func (j *Journal) Add(e Event) {
	if j == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	j.mu.Lock()
	e.Seq = j.ring.n + 1
	j.ring.push(e)
	j.mu.Unlock()
}

// Total reports how many events were ever added (including ones the
// ring has since overwritten).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.n
}

// Dropped reports how many events the ring has overwritten: a nonzero
// value means Events is showing a window, not the whole history.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.dropped()
}

// Events returns up to max retained events, newest first (max <= 0:
// all retained). The result is a copy; the ring keeps rolling.
func (j *Journal) Events(max int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.newest(max, 0)
}
