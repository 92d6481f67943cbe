package lint

// MustClose enforces the lifetime conventions of the store's pinning
// handles. Snapshots pin the memtable versions they read and zombie
// sstables, iterators own snapshots, block-cache handles own a
// tenant's resident bytes, background pools own worker goroutines,
// scheduler owner handles pin queued/running tasks, and compaction
// merge/dedup iterators own every input table iterator under them, and
// client connections own a socket plus, on the server, the cursors and
// pinned snapshots opened through them; each is reclaimed only by an
// explicit Close/Release/Quit (the finalizer
// safety net exists to count leaks, not to excuse them). Every
// constructor result must therefore be closed/released on all
// control-flow paths or escape to a tracked owner (returned, stored
// in a registry, handed to another function). The public package's
// DB, Snapshot and Iterator are aliases of the shard types, so the
// shard specs cover them: type matching looks through aliases.
var MustClose = &Analyzer{
	Name: "mustclose",
	Doc:  "snapshots, iterators, cache handles, pools, merge iterators and client connections must be closed/released or escape to an owner",
	Run: func(pass *Pass) {
		runResourceSpecs(pass, []*resourceSpec{
			{
				pkgSuffix: "internal/lsm",
				typeName:  "Snapshot",
				creators:  []string{"NewSnapshot", "NewSnapshotAt"},
				releases:  []string{"Close"},
				what:      "engine snapshot (*lsm.Snapshot)",
				verb:      "closed",
			},
			{
				pkgSuffix: "internal/lsm",
				typeName:  "Iterator",
				creators:  []string{"NewIterator"},
				releases:  []string{"Close"},
				what:      "engine iterator (*lsm.Iterator)",
				verb:      "closed",
			},
			{
				pkgSuffix: "internal/shard",
				typeName:  "Snapshot",
				creators:  []string{"NewSnapshot"},
				releases:  []string{"Close"},
				what:      "store snapshot (*shard.Snapshot)",
				verb:      "closed",
			},
			{
				pkgSuffix: "internal/shard",
				typeName:  "Iter",
				creators:  []string{"NewIterator"},
				releases:  []string{"Close"},
				what:      "store iterator (shard.Iter)",
				verb:      "closed",
			},
			{
				pkgSuffix: "internal/sstable",
				typeName:  "Handle",
				creators:  []string{"NewHandle"},
				releases:  []string{"Release"},
				what:      "block-cache tenant handle (*sstable.Handle)",
				verb:      "released",
			},
			{
				pkgSuffix: "internal/bgsched",
				typeName:  "Pool",
				creators:  []string{"NewPool"},
				releases:  []string{"Close"},
				what:      "background worker pool (*bgsched.Pool)",
				verb:      "closed",
			},
			{
				pkgSuffix: "internal/bgsched",
				typeName:  "Owner",
				creators:  []string{"NewOwner"},
				releases:  []string{"Close"},
				what:      "scheduler owner handle (*bgsched.Owner)",
				verb:      "closed",
			},
			{
				pkgSuffix: "internal/compaction",
				typeName:  "MergeIterator",
				creators:  []string{"NewMergeIterator"},
				releases:  []string{"Close"},
				what:      "compaction merge iterator (*compaction.MergeIterator)",
				verb:      "closed",
			},
			{
				pkgSuffix: "internal/compaction",
				typeName:  "DedupIterator",
				creators:  []string{"NewDedupIterator"},
				releases:  []string{"Close"},
				what:      "compaction dedup iterator (*compaction.DedupIterator)",
				verb:      "closed",
			},
			{
				pkgSuffix: "internal/client",
				typeName:  "Conn",
				creators:  []string{"Dial"},
				releases:  []string{"Close", "Quit"},
				what:      "client connection (*client.Conn)",
				verb:      "closed",
			},
		})
	},
}
