// Package probe times each layer of the store in isolation: a fixed
// number of calls into the layer's public functions with inputs shaped
// like the workloads' (8-byte keys, 255-byte values, 1 MiB tables, a
// 4-way overlapping merge). Every probe runs five times and reports the
// median, so one disturbed repetition does not move it.
//
// The numbers are not gated. They are there so that a change to one
// layer can show its effect in that layer's own terms, next to the
// end-to-end metric it was meant to move.
package probe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/bgsched"
	"repro/internal/compaction"
	"repro/internal/memtable"
	"repro/internal/resp"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// errUnexpected reports a layer answering a probe wrongly (a key not
// found, a short iteration): the timing would be of the wrong work.
var errUnexpected = errors.New("probe: a layer returned an unexpected result")

const (
	keyLen      = 8
	valLen      = 255
	repetitions = 5
	tableBytes  = 1 << 20
	tableKeys   = tableBytes / (keyLen + valLen)
	blockBytes  = 4 << 10
)

// Run executes every probe and returns metric name → value. An error
// means a layer refused inputs it should accept.
func Run(seed int64) (map[string]float64, error) {
	p := &prober{rng: rand.New(rand.NewSource(seed)), out: make(map[string]float64)}
	p.val = make([]byte, valLen)
	p.rng.Read(p.val)
	for _, f := range []func() error{p.wal, p.memtable, p.sstable, p.merge, p.bgsched, p.resp} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

type prober struct {
	rng *rand.Rand
	val []byte
	out map[string]float64
}

func key(i uint64) []byte {
	k := make([]byte, keyLen)
	binary.BigEndian.PutUint64(k, i)
	return k
}

// repeat runs f repetitions times and returns the median of its results.
func repeat(f func() (float64, error)) (float64, error) {
	var vs []float64
	for i := 0; i < repetitions; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs[len(vs)/2], nil
}

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

func (p *prober) wal() error {
	const n = 50_000
	var size int64
	ns, err := repeat(func() (float64, error) {
		w, err := wal.NewWriter(vfs.NewMemFS(), 1, false)
		if err != nil {
			return 0, err
		}
		e := base.Entry{Key: key(0), Value: p.val, Kind: base.KindSet}
		var appendErr error
		ns := perCall(n, func(i int) {
			binary.BigEndian.PutUint64(e.Key, uint64(i))
			e.Seq = uint64(i)
			if _, _, err := w.Append(e); err != nil {
				appendErr = err
			}
		})
		size = w.Size()
		if err := w.Close(); err != nil {
			return 0, err
		}
		return ns, appendErr
	})
	p.out["wal.append_ns"] = ns
	p.out["wal.bytes_per_record"] = float64(size) / n
	return err
}

func (p *prober) memtable() error {
	const n = 20_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(p.rng.Uint64())
	}
	var setNs, updNs, getNs []float64
	for r := 0; r < repetitions; r++ {
		m := memtable.New(int64(r))
		setNs = append(setNs, perCall(n, func(i int) { m.Set(keys[i], p.val, uint64(i), base.KindSet, 1, int64(i)) }))
		updNs = append(updNs, perCall(n, func(i int) { m.Set(keys[i], p.val, uint64(n+i), base.KindSet, 1, int64(i)) }))
		found := 0
		getNs = append(getNs, perCall(n, func(i int) {
			if _, ok := m.Get(keys[i]); ok {
				found++
			}
		}))
		if found != n {
			return errUnexpected
		}
	}
	for name, vs := range map[string][]float64{"memtable.set_ns": setNs, "memtable.update_ns": updNs, "memtable.get_ns": getNs} {
		slices.Sort(vs)
		p.out[name] = vs[len(vs)/2]
	}
	// Hot/cold split of a full 1 MiB memtable whose update counts are
	// skewed the way update_skewed skews them.
	ms, err := repeat(func() (float64, error) {
		m := memtable.New(7)
		for i := 0; i < tableKeys; i++ {
			m.Set(keys[i], p.val, uint64(i), base.KindSet, 1, int64(i))
		}
		for i := 0; i < 4*tableKeys; i++ {
			m.Set(keys[p.rng.Intn(tableKeys/100+1)], p.val, uint64(tableKeys+i), base.KindSet, 1, int64(i))
		}
		start := time.Now()
		sep := m.SeparateKeys(memtable.HotTopK, 0.01)
		d := time.Since(start)
		if len(sep.Hot)+len(sep.Cold) != tableKeys {
			return 0, errUnexpected
		}
		return float64(d) / 1e6, nil
	})
	p.out["memtable.separate_ms"] = ms
	return err
}

// buildTable writes a 1 MiB table holding every stride-th key from
// first, at sequence seq, and returns its size.
func (p *prober) buildTable(fs vfs.FS, id, first, stride, seq uint64) (int64, error) {
	w, err := sstable.NewWriter(fs, id, blockBytes)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < tableKeys; i++ {
		if err := w.Add(base.Entry{Key: key(first + i*stride), Value: p.val, Seq: seq, Kind: base.KindSet}); err != nil {
			w.Abort(fs)
			return 0, err
		}
	}
	return w.Finish()
}

func (p *prober) sstable() error {
	fs := vfs.NewMemFS()
	id := uint64(0)
	mbps, err := repeat(func() (float64, error) {
		id++
		start := time.Now()
		size, err := p.buildTable(fs, id, 0, 2, 1)
		return float64(size) / 1e6 / time.Since(start).Seconds(), err
	})
	if err != nil {
		return err
	}
	p.out["sstable.build_mb_per_s"] = mbps

	// The last table holds the even keys below 2*tableKeys. Lookups of
	// even keys hit (block cache warm after the first pass), lookups of
	// odd keys are in range but absent, so the bloom filter answers.
	cache := sstable.NewCache(4 * tableBytes)
	h := cache.NewHandle()
	defer h.Release()
	r, err := sstable.OpenWithCache(fs, id, h)
	if err != nil {
		return err
	}
	defer r.Close()
	const n = 20_000
	lookups := make([][]byte, n)
	for i := range lookups {
		lookups[i] = key(uint64(p.rng.Intn(tableKeys)) * 2)
	}
	var getErr error
	lookup := func(want bool, odd uint64) func() (float64, error) {
		return func() (float64, error) {
			ns := perCall(n, func(i int) {
				k := lookups[i]
				k[keyLen-1] |= byte(odd)
				_, found, _, err := r.Get(k, nil)
				k[keyLen-1] &^= 1
				if err != nil || found != want {
					getErr = errUnexpected
				}
			})
			return ns, getErr
		}
	}
	if _, err := lookup(true, 0)(); err != nil { // warm the cache
		return err
	}
	if p.out["sstable.get_hit_ns"], err = repeat(lookup(true, 0)); err != nil {
		return err
	}
	if p.out["sstable.get_miss_ns"], err = repeat(lookup(false, 1)); err != nil {
		return err
	}

	blocks := uint64(tableBytes / blockBytes)
	block := make([]byte, blockBytes)
	for b := uint64(0); b < blocks; b++ {
		h.Put(1000, b*blockBytes, block)
	}
	p.out["sstable.cache_get_ns"], err = repeat(func() (float64, error) {
		missing := 0
		ns := perCall(n, func(i int) {
			if h.Get(1000, uint64(i)%blocks*blockBytes) == nil {
				missing++
			}
		})
		if missing != 0 {
			return 0, errUnexpected
		}
		return ns, nil
	})
	if err != nil {
		return err
	}

	p.out["sstable.iter_entries_per_s"], err = repeat(func() (float64, error) {
		it, err := r.NewIterator()
		if err != nil {
			return 0, err
		}
		defer it.Close()
		start := time.Now()
		count := 0
		for it.Next() {
			count++
		}
		if count != tableKeys || it.Err() != nil {
			return 0, errUnexpected
		}
		return float64(count) / time.Since(start).Seconds(), nil
	})
	return err
}

// merge times the compaction inner loop: a 4-way merge of 1 MiB tables
// whose key ranges interleave, newest version kept, stale ones dropped.
func (p *prober) merge() error {
	const ways = 4
	fs := vfs.NewMemFS()
	readers := make([]*sstable.Reader, ways)
	for t := range readers {
		id := uint64(t + 1)
		// Table t holds keys t, t+2, t+4, ...: neighbours overlap on
		// half their keys, as L0 files of a uniform workload do.
		if _, err := p.buildTable(fs, id, uint64(t), 2, uint64(ways-t)); err != nil {
			return err
		}
		r, err := sstable.Open(fs, id)
		if err != nil {
			return err
		}
		defer r.Close()
		readers[t] = r
	}
	var err error
	p.out["compaction.merge_entries_per_s"], err = repeat(func() (float64, error) {
		its := make([]sstable.Iterator, ways)
		for t, r := range readers {
			it, err := r.NewIterator()
			if err != nil {
				return 0, err
			}
			its[t] = it
		}
		d := compaction.NewDedupIterator(compaction.NewMergeIterator(its), true, nil)
		defer d.Close()
		start := time.Now()
		kept := 0
		for d.Next() {
			kept++
		}
		if d.Err() != nil || kept == 0 {
			return 0, errUnexpected
		}
		return float64(ways*tableKeys) / time.Since(start).Seconds(), nil
	})
	return err
}

// bgsched times the hand-off of one task to an idle pool: from Submit to
// the first instruction of the task.
func (p *prober) bgsched() error {
	pool := bgsched.NewPool(2)
	defer pool.Close()
	owner := pool.NewOwner()
	defer owner.Close()
	const n = 2_000
	us, err := repeat(func() (float64, error) {
		var total time.Duration
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			start := time.Now()
			ok := owner.Submit(bgsched.ClassFlush, i%2, func() {
				total += time.Since(start)
				wg.Done()
			})
			if !ok {
				return 0, errUnexpected
			}
			wg.Wait()
		}
		return float64(total) / n / 1e3, nil
	})
	p.out["bgsched.submit_to_run_us"] = us
	return err
}

func (p *prober) resp() error {
	const n = 50_000
	set, k := []byte("SET"), key(12345)
	var err error
	p.out["resp.encode_cmd_ns"], err = repeat(func() (float64, error) {
		w := resp.NewWriter(io.Discard)
		ns := perCall(n, func(int) { w.WriteCommand(set, k, p.val) })
		return ns, w.Flush()
	})
	if err != nil {
		return err
	}

	var cmds, replies bytes.Buffer
	cw, rw := resp.NewWriter(&cmds), resp.NewWriter(&replies)
	for i := 0; i < n; i++ {
		cw.WriteCommand(set, k, p.val)
		rw.WriteBulk(p.val)
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	if err := rw.Flush(); err != nil {
		return err
	}
	p.out["resp.decode_cmd_ns"], err = repeat(func() (float64, error) {
		r := resp.NewReader(bytes.NewReader(cmds.Bytes()))
		var decodeErr error
		ns := perCall(n, func(int) {
			if args, err := r.ReadCommand(); err != nil || len(args) != 3 {
				decodeErr = errUnexpected
			}
		})
		return ns, decodeErr
	})
	if err != nil {
		return err
	}
	p.out["resp.decode_reply_ns"], err = repeat(func() (float64, error) {
		r := resp.NewReader(bytes.NewReader(replies.Bytes()))
		var decodeErr error
		ns := perCall(n, func(int) {
			if v, err := r.ReadReply(); err != nil || len(v.Str) != valLen {
				decodeErr = errUnexpected
			}
		})
		return ns, decodeErr
	})
	return err
}
