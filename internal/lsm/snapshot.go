package lsm

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/obs"
)

// ErrSnapshotClosed is returned by reads on a snapshot after Close.
var ErrSnapshotClosed = errors.New("lsm: snapshot closed")

// Snapshot is a pinned, sequence-numbered read view of the store: every
// read resolves to the newest version with Seq <= the pinned sequence,
// exactly what was visible the instant NewSnapshotAt ran. The pin holds
// three things alive until Close:
//
//   - the pinned sequence number, which filters out newer versions;
//   - the memtables of the stack (live + queued for flush) at that
//     instant — while the pin is registered, an overwrite keeps the
//     version a read at its sequence returns behind the entry that
//     replaced it (memtable.SetPinned), where memtable.Entry.At finds it;
//     a version kept for a snapshot that has closed goes with the next
//     overwrite of its key, or with its memtable;
//   - the manifest version, whose table files are reference-counted so
//     flushes and compactions cannot delete a file the snapshot still
//     reads (a consumed-but-pinned file becomes a "zombie" and is
//     removed when its last snapshot closes).
//
// A Snapshot is safe for concurrent use. Iterators opened from it keep
// the underlying pin alive even if the Snapshot is closed first; the
// resources are released when the last of them closes.
type Snapshot struct {
	db  *DB
	seq uint64
	// mems is the memtable stack at capture, oldest first, as readers saw
	// it (DB.view).
	mems    []*memtable.Memtable
	version *manifest.Version

	mu     sync.Mutex
	refs   int // 1 for the handle + 1 per open iterator
	closed bool
}

// NewSnapshotAt pins a read view at the externally assigned sequence
// seq: the snapshot observes exactly the writes committed with
// sequences <= seq. seq is the epoch ticket of a store snapshot from the
// store clock, and the clock's per-shard commit ordering guarantees that
// when the capture runs, every commit below seq has landed here and none
// above it has. A seq below the last committed sequence would claim a
// view this DB can no longer reconstruct and is an error. The snapshot
// must be Closed, or its pinned files and memtables linger until a
// finalizer catches the leak.
func (db *DB) NewSnapshotAt(seq uint64) (*Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if seq < db.seq {
		return nil, fmt.Errorf("lsm: snapshot sequence %d is before the last committed %d", seq, db.seq)
	}
	if db.closed {
		return nil, ErrClosed
	}
	// The view is published under db.mu whenever the stack changes, so
	// it is the stack as it stands.
	s := &Snapshot{db: db, seq: seq, refs: 1, mems: *db.view.Load()}
	// Capture the version and take a reference on every file it names
	// under versionMu so a racing install either sees the refs
	// (and zombies the files) or completes before the capture.
	db.versionMu.Lock()
	s.version = db.version
	for _, files := range s.version.Levels {
		for _, f := range files {
			db.refs[f.ID]++
		}
	}
	db.versionMu.Unlock()
	// The DB registers the snapshot by its sequence alone: a reference to
	// the Snapshot would keep it reachable and defeat the leak finalizer.
	i, _ := slices.BinarySearch(db.pinned, seq)
	db.pinned = slices.Insert(db.pinned, i, seq)
	// A leaked snapshot would pin files and memtables forever; the
	// finalizer is the backstop (and the accounting for the leak tests).
	runtime.SetFinalizer(s, (*Snapshot).finalize)
	return s, nil
}

// finalize runs when the snapshot becomes unreachable. Its iterators
// hold references to the snapshot, so unreachable-snapshot implies
// every unclosed iterator leaked too: any references still outstanding
// belong to garbage, and the whole pin can be force-released. A fully
// closed snapshot (refs already zero) finalizes as a no-op — the
// finalizer is deliberately NOT cleared in Close, so an iterator leaked
// after its snapshot was closed is still reclaimed here.
func (s *Snapshot) finalize() {
	s.mu.Lock()
	leaked := s.refs > 0
	s.refs = 0
	s.closed = true
	s.mu.Unlock()
	if leaked {
		s.db.snapLeaks.Add(1)
		s.db.releaseSnapshot(s)
	}
}

// LeakedSnapshots reports how many snapshots were reclaimed by the
// finalizer instead of an explicit Close.
func (db *DB) LeakedSnapshots() int64 { return db.snapLeaks.Load() }

// Seq reports the pinned sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Get returns the value stored under key as of the snapshot, or
// ErrNotFound; ErrSnapshotClosed after Close.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSnapshotClosed
	}
	s.refs++ // hold the pin across the read, so Close cannot free tables mid-lookup
	s.mu.Unlock()
	defer s.unref()

	s.db.met.UserReads.Add(1)
	// Every file in the pinned version predates the capture, so its
	// entries all satisfy Seq <= s.seq: only the memtables filter.
	return s.db.get(s.mems, s.seq, s.version, key, nil)
}

// Close releases the snapshot's pin. Iterators opened from the snapshot
// stay valid; the underlying resources are freed when the last one
// closes. Close is idempotent and returns nil on repeat calls.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.unref()
	return nil
}

// unref drops one pin reference, releasing the snapshot at zero.
func (s *Snapshot) unref() {
	s.mu.Lock()
	s.refs--
	release := s.refs == 0
	s.mu.Unlock()
	if release {
		s.db.releaseSnapshot(s)
	}
}

// addRef takes an extra pin reference (for a new iterator); it fails
// once the snapshot is closed.
func (s *Snapshot) addRef() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSnapshotClosed
	}
	s.refs++
	return nil
}

// releaseSnapshot unregisters s, drops the file references and deletes any
// zombie files whose last pin this was. It runs once per snapshot, when the
// last reference drops (unref) or the finalizer reclaims a leak. Once the
// DB is closed it does nothing: Close's release reclaimed every zombie.
func (db *DB) releaseSnapshot(s *Snapshot) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	i, _ := slices.BinarySearch(db.pinned, s.seq)
	db.pinned = slices.Delete(db.pinned, i, i+1)
	db.mu.Unlock()

	db.versionMu.Lock()
	var free []*manifest.FileMeta
	for _, files := range s.version.Levels {
		for _, f := range files {
			db.refs[f.ID]--
			if db.refs[f.ID] > 0 {
				continue
			}
			delete(db.refs, f.ID)
			if z, ok := db.zombies[f.ID]; ok {
				delete(db.zombies, f.ID)
				free = append(free, z)
			}
		}
	}
	logs, err := db.dropTablesLocked(free)
	db.versionMu.Unlock()
	if len(free) == 0 {
		return
	}
	// A failed removal is not fatal: what it leaves behind is in no
	// version, so the next Open deletes it.
	start := time.Now()
	n, rerr := db.removeTables(free, logs)
	err = cmp.Or(err, rerr)
	var freed int64
	for _, f := range free[:n] {
		freed += f.Size
	}
	detail := "zombie tables reclaimed"
	if err != nil {
		detail = fmt.Sprintf("%d of %d zombie tables reclaimed: %v", n, len(free), err)
	}
	db.met.BytesSnapshotGC.Add(freed)
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventSnapshotGC, Shard: db.opts.EventShard, Level: -1,
		Dur: time.Since(start), In: freed, Files: n, Detail: detail,
	})
}

// OpenSnapshots reports the number of live (unreleased) snapshots.
func (db *DB) OpenSnapshots() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.pinned)
}

// KeptVersions reports how many replaced versions the memtables keep behind
// their entries for snapshots (memtable.SetPinned), counted by a walk of
// the live and queued memtables (observability and leak tests).
func (db *DB) KeptVersions() int {
	v := db.view.Load()
	if v == nil {
		return 0
	}
	n := 0
	for _, m := range *v {
		n += m.Kept()
	}
	return n
}

// getFromVersion walks the disk component of version v for key (nil
// means the current version, resolved under the lock). It is the shared
// tail of DB.Get and Snapshot.Get; a snapshot's pinned version is safe
// here because its file references keep every table open. tr (nil on
// the untraced path) collects an sstable_read span per disk read.
func (db *DB) getFromVersion(v *manifest.Version, key []byte, tr *obs.Trace) ([]byte, error) {
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	if db.tables == nil {
		return nil, ErrClosed
	}
	if v == nil {
		v = db.version
	}
	// L0: newest to oldest, every file whose range holds the key (the
	// ranges overlap).
	for _, f := range v.Levels[0] {
		if bytes.Compare(key, f.Smallest) < 0 || bytes.Compare(key, f.Largest) > 0 {
			continue
		}
		e, found, err := db.probe(0, f, key, tr)
		if err != nil {
			return nil, err
		}
		if found {
			return entryValue(e)
		}
	}
	// Deeper levels: at most one file each.
	for l := 1; l < manifest.NumLevels; l++ {
		f := v.Find(l, key)
		if f == nil {
			continue
		}
		e, found, err := db.probe(l, f, key, tr)
		if err != nil {
			return nil, err
		}
		if found {
			return entryValue(e)
		}
	}
	return nil, ErrNotFound
}

// levelGets counts what lookups cost on one level: the tables they probed,
// the probes a Bloom filter turned away or passed in vain, and the disk
// reads they charged, block and log reads apart (LevelStat).
type levelGets struct {
	probes, filterNegatives, falsePositives, blockReads, logReads atomic.Int64
}

// levelTags name each level in the sstable_read spans of its probes,
// built once so that an untraced probe builds no string.
var levelTags = [manifest.NumLevels]string{"L0", "L1", "L2", "L3", "L4", "L5", "L6"}

// probe looks key up in table f of level l, charging what it cost to the
// level's counters and its disk reads to TableDiskReads, and tagging the
// spans of those reads with the level. Caller holds versionMu.
func (db *DB) probe(l int, f *manifest.FileMeta, key []byte, tr *obs.Trace) (base.Entry, bool, error) {
	e, found, p, err := db.tables[f.ID].Get(key, tr.Tagged(levelTags[l]))
	g := &db.gets[l]
	g.probes.Add(1)
	if p.FilterNegative {
		g.filterNegatives.Add(1)
	}
	if p.FalsePositive {
		g.falsePositives.Add(1)
	}
	if p.BlockReads > 0 {
		g.blockReads.Add(int64(p.BlockReads))
	}
	if p.LogReads > 0 {
		g.logReads.Add(int64(p.LogReads))
	}
	if n := p.Reads(); n > 0 {
		db.met.TableDiskReads.Add(int64(n))
	}
	return e, found, err
}
