package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"repro/internal/vfs"
)

// The STORE record is the durable identity of a sharded store. One copy
// lives on every shard's filesystem alongside that shard's MANIFEST, so
// any single shard directory is self-describing. It persists the
// store-wide facts routing depends on — shard count and partitioner name
// ("fnv"; older builds also wrote range partitioners, whose stores are
// refused) — plus the shard's own index, so a shuffled or miscounted
// reopen fails fast instead of silently misrouting keys into invisibility.
//
// Format: one line of text,
//
//	TRIADSTORE v1 <crc32c-hex> <compact-json>
//
// where the checksum covers the JSON payload. The version token gates
// future format changes; an unknown version or a failed checksum is an
// error, never a silent fallback.
const (
	storeMetaName    = "STORE"
	storeMetaMagic   = "TRIADSTORE"
	storeMetaVersion = "v1"
)

// storeMeta is the JSON payload of a STORE record.
type storeMeta struct {
	// Shards is the store-wide shard count.
	Shards int `json:"shards"`
	// Shard is the index of the shard whose filesystem holds this copy.
	Shard int `json:"shard"`
	// Partitioner names the routing the store was created with; this
	// build opens only fnvName.
	Partitioner string `json:"partitioner"`
}

var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// writeStoreMeta durably writes m as fs's STORE record (atomically, via
// a temporary file and rename).
func writeStoreMeta(fs vfs.FS, m storeMeta) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%s %s %08x %s\n",
		storeMetaMagic, storeMetaVersion, crc32.Checksum(payload, storeCRC), payload)
	tmp := storeMetaName + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(line)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, storeMetaName)
}

// readStoreMeta reads and verifies fs's STORE record. ok is false when
// the record does not exist (a store created before metadata landed, or
// a fresh filesystem); any malformed, mischecksummed or future-versioned
// record is an error.
func readStoreMeta(fs vfs.FS) (m storeMeta, ok bool, err error) {
	if !fs.Exists(storeMetaName) {
		return storeMeta{}, false, nil
	}
	f, err := fs.Open(storeMetaName)
	if err != nil {
		return storeMeta{}, false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return storeMeta{}, false, err
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
			return storeMeta{}, false, err
		}
	}
	line := strings.TrimSuffix(string(buf), "\n")
	fields := strings.SplitN(line, " ", 4)
	if len(fields) != 4 || fields[0] != storeMetaMagic {
		return storeMeta{}, false, fmt.Errorf("shard: corrupt %s record", storeMetaName)
	}
	if fields[1] != storeMetaVersion {
		return storeMeta{}, false, fmt.Errorf("shard: %s record version %q not supported (want %s)",
			storeMetaName, fields[1], storeMetaVersion)
	}
	var want uint32
	if _, err := fmt.Sscanf(fields[2], "%08x", &want); err != nil {
		return storeMeta{}, false, fmt.Errorf("shard: corrupt %s checksum", storeMetaName)
	}
	payload := []byte(fields[3])
	if got := crc32.Checksum(payload, storeCRC); got != want {
		return storeMeta{}, false, fmt.Errorf("shard: %s record checksum mismatch (got %08x, want %08x)",
			storeMetaName, got, want)
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		return storeMeta{}, false, fmt.Errorf("shard: corrupt %s payload: %w", storeMetaName, err)
	}
	if m.Shards < 1 || m.Shard < 0 || m.Shard >= m.Shards || m.Partitioner == "" {
		return storeMeta{}, false, fmt.Errorf("shard: %s record is inconsistent (%+v)", storeMetaName, m)
	}
	return m, true, nil
}
