package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one command that exceeded the slowlog threshold.
type SlowEntry struct {
	// ID numbers slow entries in observation order (1-based).
	ID   uint64
	Time time.Time
	Dur  time.Duration
	// Cmd is the command family name; Key is a copy of the command's
	// first key (truncated), enough to find the offender.
	Cmd string
	Key string
	// Trace is the command's trace id when it happened to be sampled
	// (0 otherwise): the link from "this was slow" to its full span
	// breakdown via TRACE GET.
	Trace uint64
}

// String renders the entry as one greppable line.
func (e SlowEntry) String() string {
	s := fmt.Sprintf("#%d %s %s %s %q", e.ID, e.Time.Format("15:04:05.000"), e.Dur.Round(time.Microsecond), e.Cmd, e.Key)
	if e.Trace != 0 {
		s += fmt.Sprintf(" trace=#%d", e.Trace)
	}
	return s
}

// maxSlowKeyBytes bounds the key preview a slow entry copies.
const maxSlowKeyBytes = 64

// SlowLog keeps the most recent N commands slower than a threshold,
// redis-SLOWLOG style. Observe's fast path — the one every command
// takes — is one atomic load; the ring mutex and the key copy are only
// touched by commands that were already slow.
type SlowLog struct {
	thresh atomic.Int64 // nanoseconds
	mu     sync.Mutex
	ring   ring[SlowEntry]
	since  uint64 // entries pushed before the last Reset; they are dropped
}

// NewSlowLog returns a slowlog keeping n entries over threshold.
func NewSlowLog(n int, threshold time.Duration) *SlowLog {
	if n <= 0 {
		n = 128
	}
	l := &SlowLog{ring: newRing[SlowEntry](n)}
	l.thresh.Store(int64(threshold))
	return l
}

// Observe records the command if it exceeded the threshold. key may be
// nil; it is copied (truncated to a preview) only on the slow path.
// trace links the entry to a sampled trace id (0: untraced).
func (l *SlowLog) Observe(cmd string, key []byte, d time.Duration, trace uint64) {
	if int64(d) < l.thresh.Load() {
		return
	}
	if len(key) > maxSlowKeyBytes {
		key = key[:maxSlowKeyBytes]
	}
	e := SlowEntry{Time: time.Now(), Dur: d, Cmd: cmd, Key: string(key), Trace: trace}
	l.mu.Lock()
	e.ID = l.ring.n + 1
	l.ring.push(e)
	l.mu.Unlock()
}

// Threshold reports the current slow threshold.
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.thresh.Load())
}

// Total reports how many slow commands were ever observed.
func (l *SlowLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.n
}

// Entries returns up to max retained entries, newest first (max <= 0:
// all retained).
func (l *SlowLog) Entries(max int) []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.newest(max, l.since)
}

// Reset drops the retained entries; lifetime IDs keep counting.
func (l *SlowLog) Reset() {
	l.mu.Lock()
	l.since = l.ring.n
	l.mu.Unlock()
}
