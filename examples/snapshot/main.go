// Snapshot: pin a point-in-time view of a (sharded) store, keep
// writing, and watch the snapshot's view stay frozen while live reads
// move on — then release it and watch the pinned files go.
//
// The snapshot is captured at one global instant across all shards, so
// a cross-shard Apply batch can never be seen half-committed; and its
// iterators stream (nothing is materialized up front), so holding one
// open is cheap even over a large store.
package main

import (
	"fmt"
	"log"

	triad "repro"
)

func main() {
	// A 4-shard in-memory store; swap in triad.ShardDirs("some/dir")
	// for a durable one — the API is identical.
	db, err := triad.Open(triad.Options{Shards: 4, ShardFS: triad.ShardMemFS()})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Seed a pair of balances kept at a constant sum by cross-shard
	// batches, plus some bulk data.
	var init triad.Batch
	init.Put([]byte("bal:alice"), []byte("900"))
	init.Put([]byte("bal:bob"), []byte("100"))
	for i := 0; i < 1000; i++ {
		init.Put([]byte(fmt.Sprintf("doc:%04d", i)), []byte("rev-1"))
	}
	if err := db.Apply(&init); err != nil {
		log.Fatal(err)
	}

	// Pin the view. From here on, nothing the store absorbs is visible
	// through snap — but the store keeps flushing and compacting
	// underneath it; the files the snapshot reads are reference-counted
	// and survive until Close.
	snap, err := db.NewSnapshot()
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()

	// Keep writing: a transfer (atomic per shard, captured all-or-
	// nothing by snapshots), a rewrite of every document, and a flush.
	var transfer triad.Batch
	transfer.Put([]byte("bal:alice"), []byte("400"))
	transfer.Put([]byte("bal:bob"), []byte("600"))
	if err := db.Apply(&transfer); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("doc:%04d", i)), []byte("rev-2")); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}

	get := func(g func([]byte) ([]byte, error), key string) string {
		v, err := g([]byte(key))
		if err != nil {
			log.Fatal(err)
		}
		return string(v)
	}
	fmt.Printf("live view:     alice=%s bob=%s doc:0000=%s\n",
		get(db.Get, "bal:alice"), get(db.Get, "bal:bob"), get(db.Get, "doc:0000"))
	fmt.Printf("snapshot view: alice=%s bob=%s doc:0000=%s\n",
		get(snap.Get, "bal:alice"), get(snap.Get, "bal:bob"), get(snap.Get, "doc:0000"))

	// Streaming scan over the frozen view: every doc still at rev-1.
	it, err := snap.NewIterator([]byte("doc:"), []byte("doc:z"))
	if err != nil {
		log.Fatal(err)
	}
	rev1 := 0
	for it.Next() {
		if string(it.Value()) == "rev-1" {
			rev1++
		}
	}
	fmt.Printf("snapshot scan: %d/1000 docs at rev-1 (live store is fully at rev-2)\n", rev1)

	// The snapshot counts as open until its handle and every iterator
	// opened from it are closed.
	fmt.Printf("open snapshots before Close:          %d\n", db.OpenSnapshots())
	if err := snap.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("open snapshots with the scan open:    %d\n", db.OpenSnapshots())
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("open snapshots after the scan closed: %d\n", db.OpenSnapshots())
}
