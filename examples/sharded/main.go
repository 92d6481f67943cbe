// Sharded: partition the keyspace across independent TRIAD engine
// instances and drive them from concurrent writers.
//
// One engine serializes every write behind a single memtable mutex and
// commit log. Opening the store with Shards: 4 gives four engines —
// each with its own WAL, memtable, levels and background workers — and
// a router that hashes every key to its owning shard. Point operations
// route; batches split; scans merge back into one sorted stream.
package main

import (
	"fmt"
	"log"
	"sync"

	triad "repro"
)

func main() {
	db, err := triad.Open(triad.Options{
		Shards:  4,
		ShardFS: triad.ShardMemFS(), // triad.ShardDirs("some/dir") for a durable store
		Profile: triad.ProfileTriad,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Concurrent writers: keys hash across shards, so the four write
	// paths proceed in parallel instead of queueing on one mutex.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2500; i++ {
				key := fmt.Sprintf("user:%d:%04d", w, i)
				if err := db.Put([]byte(key), []byte("profile")); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()

	// A batch whose keys span several shards: Apply splits it into
	// per-shard sub-batches and commits them concurrently.
	var b triad.Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("order:%04d", i)), []byte("pending"))
	}
	if err := db.Apply(&b); err != nil {
		log.Fatal(err)
	}

	// Point reads route to the owning shard.
	v, err := db.Get([]byte("user:3:0042"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user:3:0042 = %s\n", v)

	// Range scans k-way-merge the per-shard snapshots back into one
	// globally sorted stream.
	it, err := db.NewIterator([]byte("order:0000"), []byte("order:0010"))
	if err != nil {
		log.Fatal(err)
	}
	for it.Next() {
		fmt.Printf("  %s = %s\n", it.Key(), it.Value())
	}
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}
	// The scan pinned one snapshot across the shards until Close.
	fmt.Printf("snapshots open after the scan: %d\n", db.OpenSnapshots())

	// Metrics aggregate across shards; 8 writers x 2500 + 100 batch ops.
	m := db.Metrics()
	fmt.Printf("writes=%d logged=%d bytes across 4 shards\n", m.UserWrites, m.BytesLogged)
	fmt.Println(db.Stats())
}
