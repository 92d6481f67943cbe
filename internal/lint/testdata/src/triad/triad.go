// Package triad is a stub of the repository's public package for
// analyzer golden tests: its store types are aliases of the shard
// stub's, exactly as the real package's are of internal/shard's.
package triad

import "shard"

type (
	DB       = shard.DB
	Snapshot = shard.Snapshot
	Iterator = shard.Iter
)
