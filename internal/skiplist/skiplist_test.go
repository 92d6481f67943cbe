package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// set stores v under key, replacing any current value.
func set(l *List[int], key []byte, v int) {
	l.Put(key, func([]byte, *int) *int { return &v })
}

func TestEmpty(t *testing.T) {
	l := New[int](1)
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
	if l.Get([]byte("a")) != nil {
		t.Fatal("Get on empty list returned a value")
	}
	it := l.NewIterator()
	if it.Next() {
		t.Fatal("iterator on empty list advanced")
	}
}

func TestPutGetReplace(t *testing.T) {
	l := New[int](1)
	var seen []*int
	put := func(v int) {
		l.Put([]byte("k"), func(_ []byte, cur *int) *int {
			seen = append(seen, cur)
			return &v
		})
	}
	put(1)
	put(2)
	if seen[0] != nil {
		t.Fatal("first Put was handed a current value")
	}
	if seen[1] == nil || *seen[1] != 1 {
		t.Fatalf("second Put was handed %v, want 1", seen[1])
	}
	if v := l.Get([]byte("k")); v == nil || *v != 2 {
		t.Fatalf("Get = %v, want 2", v)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestIterationSorted(t *testing.T) {
	l := New[int](3)
	rng := rand.New(rand.NewSource(7))
	n := 1000
	for i := 0; i < n; i++ {
		set(l, []byte(fmt.Sprintf("%08d", rng.Intn(10*n))), i)
	}
	var prev string
	count := 0
	it := l.NewIterator()
	for it.Next() {
		k := string(it.Key())
		if count > 0 && k <= prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		prev = k
		count++
	}
	if count != l.Len() {
		t.Fatalf("iterated %d entries, Len = %d", count, l.Len())
	}
}

func TestSeekGE(t *testing.T) {
	l := New[int](4)
	for i := 0; i < 100; i += 10 {
		set(l, []byte(fmt.Sprintf("%03d", i)), i)
	}
	it := l.NewIterator()
	if !it.SeekGE([]byte("015")) {
		t.Fatal("SeekGE(015) found nothing")
	}
	if string(it.Key()) != "020" {
		t.Fatalf("SeekGE(015) = %q, want 020", it.Key())
	}
	if !it.SeekGE([]byte("090")) || string(it.Key()) != "090" {
		t.Fatal("SeekGE(exact) failed")
	}
	if it.SeekGE([]byte("091")) {
		t.Fatalf("SeekGE past the end found %q", it.Key())
	}
}

// TestQuickAgainstMap drives random puts against a map oracle.
func TestQuickAgainstMap(t *testing.T) {
	check := func(seed int64, ops []uint16) bool {
		l := New[int](seed)
		oracle := map[string]int{}
		for _, op := range ops {
			key := []byte(fmt.Sprintf("%04d", op%512))
			set(l, key, int(op))
			oracle[string(key)] = int(op)
		}
		if l.Len() != len(oracle) {
			return false
		}
		// Full scan must equal the sorted oracle.
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		it := l.NewIterator()
		for _, k := range keys {
			if !it.Next() || string(it.Key()) != k || *it.Value() != oracle[k] {
				return false
			}
		}
		return !it.Next()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReadersDuringWrites is the list's concurrency contract under -race:
// while one writer inserts ascending values under random keys, readers
// and iterators see every key they find with a value at least as new as
// the last one they saw, scans stay sorted, and a key inserted before a
// reader started is always found.
func TestReadersDuringWrites(t *testing.T) {
	const keys, writes, readers = 256, 20000, 3
	l := New[int](5)
	key := func(i int) []byte { return []byte(fmt.Sprintf("%04d", i)) }
	for i := 0; i < keys; i += 2 {
		set(l, key(i), 0) // even keys exist from the start
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			last := make([]int, keys)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				if v := l.Get(key(i)); v != nil {
					if *v < last[i] {
						t.Errorf("key %d went back from %d to %d", i, last[i], *v)
						return
					}
					last[i] = *v
				} else if i%2 == 0 {
					t.Errorf("key %d, present from the start, not found", i)
					return
				}
				it := l.NewIterator()
				var prev []byte
				for ok := it.SeekGE(key(i)); ok; ok = it.Next() {
					if prev != nil && string(it.Key()) <= string(prev) {
						t.Errorf("scan out of order: %q after %q", it.Key(), prev)
						return
					}
					prev = it.Key()
					if it.Value() == nil {
						t.Errorf("key %q linked without a value", it.Key())
						return
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	for v := 1; v <= writes; v++ {
		set(l, key(rng.Intn(keys)), v)
	}
	close(stop)
	wg.Wait()
}

// TestGetDuringPredecessorInserts aims at the one window a lock-free
// lookup has: every insert here becomes the immediate predecessor of a key
// a reader keeps looking up, so each one changes the very link the lookup
// ends on. The key was there before the reader started; it must be found
// every time.
func TestGetDuringPredecessorInserts(t *testing.T) {
	l := New[int](7)
	target := []byte("b")
	set(l, target, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if l.Get(target) == nil {
					t.Error("a key present from the start was not found")
					return
				}
			}
		}()
	}
	for i := 0; i < 200000; i++ {
		set(l, []byte(fmt.Sprintf("a%07d", i)), i) // ascending, all below target
	}
	close(stop)
	wg.Wait()
}

func BenchmarkPut(b *testing.B) {
	l := New[int](1)
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%08d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set(l, keys[i%len(keys)], i)
	}
}

func BenchmarkGet(b *testing.B) {
	l := New[int](1)
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%08d", i))
		set(l, keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get(keys[i%len(keys)])
	}
}

// TestRandomizedAgainstMap inserts in four orders — ascending, descending,
// random, and an ascending run repeated three times — against a map
// oracle, through one reused key buffer, while readers look keys up and
// scan. Ascending inserts always start from the last insert's splice,
// descending ones never can, and the random and repeated orders mix new
// keys with updates on both sides of it. A reader must find every key put
// before it looked, with that put's value or a later one, and see sorted
// scans of complete entries; afterwards the list must equal the oracle.
func TestRandomizedAgainstMap(t *testing.T) {
	const n, readers = 6000, 2
	orders := map[string]func(rng *rand.Rand) []int{
		"ascending": func(*rand.Rand) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out
		},
		"descending": func(*rand.Rand) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = n - i
			}
			return out
		},
		"random": func(rng *rand.Rand) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = rng.Intn(n / 2)
			}
			return out
		},
		"repeated": func(*rand.Rand) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = i % (n / 3)
			}
			return out
		},
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			keys := order(rand.New(rand.NewSource(11)))
			key := func(k int) []byte { return []byte(fmt.Sprintf("%06d", k)) }
			l := New[int](int64(len(name)))
			var done atomic.Int64 // keys[:done] have been put
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						d := int(done.Load())
						if d == 0 {
							continue
						}
						i := rng.Intn(d)
						if v := l.Get(key(keys[i])); v == nil || *v < i {
							t.Errorf("key %06d, put by op %d, read back as %v", keys[i], i, v)
							return
						}
						it := l.NewIterator()
						var prev []byte
						for ok, steps := it.SeekGE(key(keys[i])), 0; ok && steps < 64; ok, steps = it.Next(), steps+1 {
							if prev != nil && bytes.Compare(it.Key(), prev) <= 0 || it.Value() == nil {
								t.Errorf("scan: %q (value %v) after %q", it.Key(), it.Value(), prev)
								return
							}
							prev = it.Key()
						}
					}
				}()
			}
			oracle := map[string]int{}
			buf := make([]byte, 0, 16)
			for i, k := range keys {
				buf = fmt.Appendf(buf[:0], "%06d", k)
				set(l, buf, i)
				oracle[string(buf)] = i
				done.Store(int64(i + 1))
			}
			close(stop)
			wg.Wait()

			if l.Len() != len(oracle) {
				t.Fatalf("Len = %d, oracle holds %d", l.Len(), len(oracle))
			}
			want := make([]string, 0, len(oracle))
			for k := range oracle {
				want = append(want, k)
			}
			sort.Strings(want)
			it := l.NewIterator()
			for _, k := range want {
				if !it.Next() || string(it.Key()) != k || *it.Value() != oracle[k] {
					t.Fatalf("scan diverges from the oracle at %s", k)
				}
				if v := l.Get([]byte(k)); v == nil || *v != oracle[k] {
					t.Fatalf("Get(%s) = %v, want %d", k, v, oracle[k])
				}
			}
			if it.Next() {
				t.Fatalf("scan holds %q beyond the oracle", it.Key())
			}
		})
	}
}
