// Quickstart: open a TRIAD store, write, read, scan, and inspect the
// engine metrics.
package main

import (
	"fmt"
	"log"

	triad "repro"
	"repro/internal/vfs"
)

func main() {
	// An in-memory store; swap in vfs.NewOSFS("some/dir") for a durable
	// one — the API is identical.
	db, err := triad.Open(triad.Options{FS: vfs.NewMemFS(), Profile: triad.ProfileTriad})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Writes go to the memtable and commit log; reads check memory
	// first, then the LSM levels.
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user:%04d", i)
		if err := db.Put([]byte(key), []byte(fmt.Sprintf("profile-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	v, err := db.Get([]byte("user:0042"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user:0042 = %s\n", v)

	// Deletes write tombstones; Get then reports ErrNotFound.
	if err := db.Delete([]byte("user:0042")); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Get([]byte("user:0042")); err == triad.ErrNotFound {
		fmt.Println("user:0042 deleted")
	}

	// Range scans see a point-in-time snapshot.
	it, err := db.NewIterator([]byte("user:0010"), []byte("user:0015"))
	if err != nil {
		log.Fatal(err)
	}
	for it.Next() {
		fmt.Printf("  %s = %s\n", it.Key(), it.Value())
	}
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}
	// The scan's snapshot pinned the versions and files it reads until
	// Close released it.
	fmt.Printf("snapshots pinned after the scan: %d\n", db.ShardStats()[0].OpenSnapshots)

	// Force the memtable down to L0 and look at the tree.
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	m := db.Metrics()
	fmt.Printf("level files: %v\n", db.NumLevelFiles())
	fmt.Printf("flushes=%d bytesLogged=%d bytesFlushed=%d WA=%.2f\n",
		m.Flushes, m.BytesLogged, m.BytesFlushed, m.WriteAmplification())
}
