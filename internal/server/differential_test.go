package server_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	triad "repro"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/vfs"
)

// TestDifferentialClientVsEmbedded applies one randomized workload two
// ways — through internal/client against a live 4-shard server, and
// through an embedded one-shard triad.DB — and requires identical
// Get/MGet/Scan results. The two paths share no batching or transport
// code, and the embedded store routes every key to its one shard, so a
// divergence pinpoints a bug in the server, codec, client or shard
// router.
func TestDifferentialClientVsEmbedded(t *testing.T) {
	db := newTestStore(t, 4)
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)

	ref, err := triad.Open(triad.Options{FS: vfs.NewMemFS(), Profile: triad.ProfileTriad})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	const (
		ops      = 2500
		keySpace = 300
	)
	rng := rand.New(rand.NewSource(42))
	key := func() []byte { return []byte(fmt.Sprintf("key-%03d", rng.Intn(keySpace))) }
	val := func() []byte {
		v := make([]byte, rng.Intn(200))
		rng.Read(v)
		return v
	}

	touched := make(map[string]struct{})
	for i := 0; i < ops; i++ {
		switch p := rng.Float64(); {
		case p < 0.55: // SET
			k, v := key(), val()
			touched[string(k)] = struct{}{}
			if err := c.Set(k, v); err != nil {
				t.Fatal(err)
			}
			if err := ref.Put(k, v); err != nil {
				t.Fatal(err)
			}
		case p < 0.70: // DEL
			k := key()
			touched[string(k)] = struct{}{}
			if _, err := c.Del(k); err != nil {
				t.Fatal(err)
			}
			if err := ref.Delete(k); err != nil {
				t.Fatal(err)
			}
		case p < 0.85: // MSET of 2-4 pairs
			n := 2 + rng.Intn(3)
			var pairs [][]byte
			var b triad.Batch
			for j := 0; j < n; j++ {
				k, v := key(), val()
				touched[string(k)] = struct{}{}
				pairs = append(pairs, k, v)
				b.Put(k, v)
			}
			if err := c.MSet(pairs...); err != nil {
				t.Fatal(err)
			}
			if err := ref.Apply(&b); err != nil {
				t.Fatal(err)
			}
		default: // pipelined burst of SETs (the group-commit shape)
			n := 4 + rng.Intn(12)
			type kv struct{ k, v []byte }
			var burst []kv
			for j := 0; j < n; j++ {
				k, v := key(), val()
				touched[string(k)] = struct{}{}
				burst = append(burst, kv{k, v})
				if err := c.Send("SET", k, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for range burst {
				if _, err := c.Receive(); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range burst {
				if err := ref.Put(e.k, e.v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if i%500 == 499 {
			compareStores(t, c, ref, touched)
		}
	}
	// Force flushes so the comparison also covers on-disk state.
	if err := c.FlushStore(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	compareStores(t, c, ref, touched)
}

// compareStores checks every touched key point-wise and the full scans
// of both stores against each other.
func compareStores(t *testing.T, c *client.Conn, ref *triad.DB, touched map[string]struct{}) {
	t.Helper()
	for k := range touched {
		gotV, gotFound, err := c.Get([]byte(k))
		if err != nil {
			t.Fatalf("client Get %q: %v", k, err)
		}
		refV, refErr := ref.Get([]byte(k))
		refFound := refErr == nil
		if refErr != nil && refErr != triad.ErrNotFound {
			t.Fatalf("ref Get %q: %v", k, refErr)
		}
		if gotFound != refFound {
			t.Fatalf("key %q: client found=%v, embedded found=%v", k, gotFound, refFound)
		}
		if gotFound && !bytes.Equal(gotV, refV) {
			t.Fatalf("key %q: client %q != embedded %q", k, gotV, refV)
		}
	}

	// Page with a small count so the comparison walks the cursor path
	// (ScanAll always uses cursors; forcing several pages makes CONT do
	// real work at every comparison point).
	cursor, keys, vals, err := c.ScanOpen(nil, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	for cursor != client.DoneCursor {
		var ks, vs [][]byte
		cursor, ks, vs, err = c.ScanCont(cursor, 64)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ks...)
		vals = append(vals, vs...)
	}
	it, err := ref.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.Next() {
		if i >= len(keys) {
			t.Fatalf("client scan ended at %d entries; embedded has more (next %q)", len(keys), it.Key())
		}
		if !bytes.Equal(keys[i], it.Key()) || !bytes.Equal(vals[i], it.Value()) {
			t.Fatalf("scan entry %d: client (%q, %q) != embedded (%q, %q)",
				i, keys[i], vals[i], it.Key(), it.Value())
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("client scan has %d entries, embedded %d", len(keys), i)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialCursorPagingUnderWriters pages tiny cursor pages
// through a store being rewritten by concurrent MSET writers that
// maintain a constant pair sum. Every fully-paged scan must be a
// consistent point-in-time view: all pairs present, every pair summing
// to the invariant — across page boundaries, which is exactly what the
// pinned cursor snapshot guarantees and last-key-resume paging did not.
func TestDifferentialCursorPagingUnderWriters(t *testing.T) {
	db := newTestStore(t, 4)
	_, addr := startServer(t, db, server.Config{})
	const (
		pairs = 20
		sum   = 1000
	)
	seed := dial(t, addr)
	for i := 0; i < pairs; i++ {
		if err := seed.MSet(
			[]byte(fmt.Sprintf("bal-a-%03d", i)), []byte(fmt.Sprintf("%04d", sum)),
			[]byte(fmt.Sprintf("bal-b-%03d", i)), []byte("0000"),
		); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	done := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			wc, err := client.Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer wc.Close()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			// Disjoint pair ownership: concurrent conflicting cross-shard
			// batches have no cross-shard ordering guarantee.
			lo, hi := w*pairs/2, (w+1)*pairs/2
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				i := lo + rng.Intn(hi-lo)
				r := rng.Intn(sum + 1)
				if err := wc.MSet(
					[]byte(fmt.Sprintf("bal-a-%03d", i)), []byte(fmt.Sprintf("%04d", r)),
					[]byte(fmt.Sprintf("bal-b-%03d", i)), []byte(fmt.Sprintf("%04d", sum-r)),
				); err != nil {
					done <- err
					return
				}
			}
		}(w)
	}

	c := dial(t, addr)
	for round := 0; round < 40 && !t.Failed(); round++ {
		seen := map[string]int{}
		cursor, keys, vals, err := c.ScanOpen([]byte("bal-"), []byte("bal-z"), 7)
		if err != nil {
			t.Fatal(err)
		}
		for {
			for i := range keys {
				var n int
				fmt.Sscanf(string(vals[i]), "%d", &n)
				seen[string(keys[i])] = n
			}
			if cursor == client.DoneCursor {
				break
			}
			cursor, keys, vals, err = c.ScanCont(cursor, 7)
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(seen) != 2*pairs {
			t.Fatalf("round %d: paged scan saw %d keys, want %d", round, len(seen), 2*pairs)
		}
		for i := 0; i < pairs; i++ {
			a := seen[fmt.Sprintf("bal-a-%03d", i)]
			b := seen[fmt.Sprintf("bal-b-%03d", i)]
			if a+b != sum {
				t.Fatalf("round %d: pair %d sums to %d across pages, want %d — cursor view not snapshot-consistent", round, i, a+b, sum)
			}
		}
	}
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("writer: %v", err)
		}
	}
}
