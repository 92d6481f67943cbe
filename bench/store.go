package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/bench/tracefs"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// Store geometry. The ratios are the issue's (memtable : commit log :
// flush threshold : file : base level : cache = 1 : 4 : 1/2 : 1 : 8 : 8,
// user data ≈ 30× the cache and ≈ 130× the memtables); the absolute
// sizes are a quarter of it so that three set-ups, a warm-up and eleven
// rounds fit the run-time cap with several compaction cycles per round.
const (
	shards        = 2
	memtableBytes = 256 << 10 // per shard
	commitLog     = 1 << 20
	flushThresh   = 128 << 10
	targetFile    = 256 << 10
	baseLevel     = 2 << 20
	blockBytes    = 4 << 10
	cacheBytes    = 2 << 20 // store-wide
	defaultKeys   = 250_000 // × 263 B ≈ 66 MB of user data
)

// store is one opened engine on counting filesystems.
type store struct {
	db       *shard.DB
	mem      []*vfs.MemFS
	counters *tracefs.Counters
}

func openStore(rec *tracefs.Recorder) (*store, error) {
	s := &store{counters: &tracefs.Counters{}}
	eo := lsm.TriadOptions(nil)
	eo.MemtableBytes = memtableBytes
	eo.CommitLogBytes = commitLog
	eo.FlushThresholdBytes = flushThresh
	eo.TargetFileBytes = targetFile
	eo.BaseLevelBytes = baseLevel
	eo.BlockBytes = blockBytes
	eo.BlockCacheBytes = cacheBytes / shards // shard.Open pools the shares
	eo.SyncWAL = false                       // the stated flush policy: no sync per write
	db, err := shard.Open(shard.Options{
		Shards: shards,
		Engine: eo,
		NewFS: func(int) (vfs.FS, error) {
			m := vfs.NewMemFS()
			s.mem = append(s.mem, m)
			return tracefs.New(m, s.counters, rec), nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.db = db
	return s, nil
}

// quiesce pays every deferred debt: flush the memtables, then compact
// until the picker has nothing left.
func (s *store) quiesce() error {
	if err := s.db.Flush(); err != nil {
		return err
	}
	return s.db.CompactAll()
}

// residentBytes is what the store occupies on its filesystems now.
func (s *store) residentBytes() (int64, error) {
	var total int64
	for _, m := range s.mem {
		n, err := tracefs.ResidentBytes(m)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// preload writes version 1 of every key, each worker its own keys in
// ascending order, in batches (the bulk path a loader would use).
func (s *store) preload(o *oracle) error {
	const batchOps = 64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key, val := make([]byte, keyLen), make([]byte, valLen)
			b := &lsm.Batch{}
			for idx := uint32(w); int(idx) < len(o.ver); idx += workers {
				putKey(key, idx)
				o.next(val, idx)
				b.Put(key, val)
				if b.Len() == batchOps || int(idx)+workers >= len(o.ver) {
					if err := s.db.Apply(b); err != nil {
						errs[w] = err
						return
					}
					b = &lsm.Batch{}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// setUp builds a loaded, quiesced store: open, preload, flush, compact.
func setUp(keys int, seed int64, rec *tracefs.Recorder) (*store, *oracle, error) {
	s, err := openStore(rec)
	if err != nil {
		return nil, nil, err
	}
	o := newOracle(keys, seed)
	if err := s.preload(o); err == nil {
		err = s.quiesce()
	}
	if err != nil {
		s.db.Close()
		return nil, nil, err
	}
	return s, o, nil
}

// tracedStore decorates the server's view of the engine. Untraced, each
// intercepted call adds one atomic increment and one atomic load; traced,
// it is recorded as a span that filesystem spans on the server's
// goroutine hang from. Every other server.Store method is *shard.DB's own.
type tracedStore struct {
	*shard.DB
	rec                      *tracefs.Recorder
	name                     spanNames
	gets, prepares, barriers atomic.Int64
}

// spanNames are the recorder's indexes of the spans the benchmark itself
// opens: one per driver call, one per intercepted server.Store call.
type spanNames struct {
	put, get                             uint16
	storeGet, storePrepare, storeBarrier uint16
}

// registerNames registers the benchmark's span names, once per recorder.
func registerNames(rec *tracefs.Recorder) spanNames {
	return spanNames{
		put:          rec.Name("op.put"),
		get:          rec.Name("op.get"),
		storeGet:     rec.Name("store.get"),
		storePrepare: rec.Name("store.prepare"),
		storeBarrier: rec.Name("store.barrier"),
	}
}

func (s *tracedStore) GetTraced(key []byte, tr *obs.Trace) ([]byte, error) {
	s.gets.Add(1)
	tok := s.rec.Enter(s.name.storeGet)
	v, err := s.DB.GetTraced(key, tr)
	s.rec.Exit(tok)
	return v, err
}

func (s *tracedStore) Get(key []byte) ([]byte, error) { return s.GetTraced(key, nil) }

func (s *tracedStore) Prepare(b *lsm.Batch) (*shard.Commit, error) {
	s.prepares.Add(1)
	tok := s.rec.Enter(s.name.storePrepare)
	c, err := s.DB.Prepare(b)
	s.rec.Exit(tok)
	return c, err
}

func (s *tracedStore) WaitCommitted(epoch uint64) {
	s.barriers.Add(1)
	tok := s.rec.Enter(s.name.storeBarrier)
	s.DB.WaitCommitted(epoch)
	s.rec.Exit(tok)
}
