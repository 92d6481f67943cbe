package server_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// openHookedStore opens an in-memory store of shards shards whose shard 0
// runs every commit-log write through logWrite first.
func openHookedStore(t *testing.T, shards int, logWrite func()) *shard.DB {
	t.Helper()
	opts := lsm.TriadOptions(nil)
	opts.MemtableBytes = 256 << 10
	opts.CommitLogBytes = 1 << 20
	db, err := shard.Open(shard.Options{Shards: shards, Engine: opts, NewFS: func(i int) (vfs.FS, error) {
		fs := vfs.NewMemFS()
		if i == 0 {
			fs.SetHooks(vfs.Hooks{Before: func(op vfs.Op) error {
				if op.Kind == vfs.OpWrite && strings.HasSuffix(op.Name, ".log") {
					logWrite()
				}
				return nil
			}})
		}
		return fs, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// keysOnShard returns n keys with prefix that shard i owns, each written
// once with the value "probe" to find its owner.
func keysOnShard(t *testing.T, db *shard.DB, i, n int, prefix string) [][]byte {
	t.Helper()
	var out [][]byte
	for j := 0; len(out) < n; j++ {
		k := []byte(fmt.Sprintf("%s-%04d", prefix, j))
		if err := db.Put(k, []byte("probe")); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Shard(i).Get(k); err == nil {
			out = append(out, k)
		}
	}
	return out
}

// readProbeStore reports every point read the server makes on the store.
type readProbeStore struct {
	*shard.DB
	reads chan []byte
}

func (s *readProbeStore) GetTraced(key []byte, tr *obs.Trace) ([]byte, error) {
	select {
	case s.reads <- key:
	default:
	}
	return s.DB.GetTraced(key, tr)
}

// TestReadYourWritesWaitsForEveryGroup: a connection's read waits for
// every write group it enqueued, not only the last. Group G1 (a SET on
// shard 0) is held in its commit, parked in shard 0's log append; G2 (a
// SET on shard 1), pipelined behind it on the same connection, commits.
// A GET of G1's key must not read the store until G1 is let through,
// and must then read G1's value.
func TestReadYourWritesWaitsForEveryGroup(t *testing.T) {
	var armed atomic.Bool
	var park sync.Once
	hold := make(chan struct{})
	parked := make(chan struct{})
	db := openHookedStore(t, 2, func() {
		if armed.Load() {
			park.Do(func() {
				close(parked)
				<-hold
			})
		}
	})
	k0 := keysOnShard(t, db, 0, 1, "g1")[0]
	k1 := keysOnShard(t, db, 1, 1, "g2")[0]
	ps := &readProbeStore{DB: db, reads: make(chan []byte, 1)}
	srv, addr := serveStore(t, ps, db, server.Config{})
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release) // runs before the server's teardown
	c := dial(t, addr)

	armed.Store(true)
	send := func(cmd string, args ...[]byte) {
		t.Helper()
		if err := c.Send(cmd, args...); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send("SET", k0, []byte("g1"))
	<-parked // G1 holds shard 0 in its commit
	send("SET", k1, []byte("g2"))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, err := db.Get(k1); err == nil && string(v) == "g2" {
			break // G2 committed beside the held G1
		}
		if time.Now().After(deadline) {
			t.Fatal("G2 never committed while G1 was held")
		}
	}
	send("GET", k0)
	waitCommands(t, srv, 3)
	select {
	case k := <-ps.reads:
		t.Fatalf("GET %s read the store while its connection's group G1 was held", k)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	for i, want := range []string{"OK", "OK", "g1"} {
		if v, err := c.Receive(); err != nil || v.Text() != want {
			t.Fatalf("reply %d = %v, %v; want %q", i, v, err, want)
		}
	}
}

// TestReadYourWritesPipelined: two connections each pipeline MSETs of
// random keys of their own, spread over four shards, and GETs of those
// keys. The writes trickle in, so the committer seals a connection's
// writes into several groups and up to its pipeline depth of them apply
// at once. Shard 0's log appends are slowed: a group on shard 0 is still
// applying when a later group of the same connection that avoids shard 0
// has committed. Every GET must return the connection's last value for
// its key.
func TestReadYourWritesPipelined(t *testing.T) {
	const shards = 4
	db := openHookedStore(t, shards, func() { time.Sleep(time.Millisecond) })
	_, addr := startServer(t, db, server.Config{})
	const conns, rounds, depth = 2, 80, 24
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		var keys [][]byte // the first four on shard 0
		for i := 0; i < shards; i++ {
			keys = append(keys, keysOnShard(t, db, i, 4, fmt.Sprintf("c%d-s%d", w, i))...)
		}
		wg.Add(1)
		go func(w int, keys [][]byte) {
			defer wg.Done()
			errs <- pipelineOwnKeys(addr, rand.New(rand.NewSource(int64(w+1))), keys, rounds, depth)
		}(w, keys)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// pipelineOwnKeys runs rounds of depth pipelined commands on one
// connection — MSETs of one to three of keys, each followed by a pause of
// up to 200 µs, and GETs, half of them of the first four keys (shard 0's)
// — and checks each GET against the last value the connection wrote to
// the key.
func pipelineOwnKeys(addr string, rng *rand.Rand, keys [][]byte, rounds, depth int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	last := make(map[string]string, len(keys))
	for _, k := range keys {
		last[string(k)] = "probe"
	}
	for r := 0; r < rounds; r++ {
		want := make([]string, depth)
		for j := range want {
			if j > 0 && rng.Intn(3) == 0 {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(2) == 0 {
					k = keys[rng.Intn(4)]
				}
				want[j] = last[string(k)]
				if err := c.Send("GET", k); err != nil {
					return err
				}
				if err := c.Flush(); err != nil {
					return err
				}
				continue
			}
			var pairs [][]byte
			for n := 1 + rng.Intn(3); n > 0; n-- {
				k, v := keys[rng.Intn(len(keys))], fmt.Sprintf("%d-%d-%d", r, j, n)
				last[string(k)] = v
				pairs = append(pairs, k, []byte(v))
			}
			want[j] = "OK"
			if err := c.Send("MSET", pairs...); err != nil {
				return err
			}
			if err := c.Flush(); err != nil {
				return err
			}
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
		for j, w := range want {
			v, err := c.Receive()
			if err != nil {
				return err
			}
			if v.Text() != w {
				return fmt.Errorf("round %d reply %d = %q, want %q: a read missed its connection's write", r, j, v.Text(), w)
			}
		}
	}
	return nil
}
