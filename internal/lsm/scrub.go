package lsm

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/sstable"
	"repro/internal/wal"
)

// CheckConsistency walks the whole tree and verifies its invariants:
// every table opens and iterates cleanly (exercising all block CRCs),
// entries within a table are strictly sorted and inside the manifest's
// [smallest, largest] bounds, deeper levels hold disjoint sorted ranges,
// and CL-SSTables can resolve every index entry against their pinned log.
// It is the offline scrub a production store ships for fsck-style
// verification; tests use it after crash-recovery scenarios.
func (db *DB) CheckConsistency() error {
	db.versionMu.RLock()
	defer db.versionMu.RUnlock()
	v := db.version
	if err := v.CheckInvariants(); err != nil {
		return err
	}
	for level, files := range v.Levels {
		for _, f := range files {
			t, ok := db.tables[f.ID]
			if !ok {
				return fmt.Errorf("lsm: L%d table %d missing from cache", level, f.ID)
			}
			if t.NumEntries() != f.NumEntries {
				return fmt.Errorf("lsm: L%d table %d: manifest says %d entries, table has %d",
					level, f.ID, f.NumEntries, t.NumEntries())
			}
			it, err := t.NewIterator()
			if err != nil {
				return fmt.Errorf("lsm: L%d table %d: %w", level, f.ID, err)
			}
			var prev []byte
			var count uint64
			for it.Next() {
				e := it.Entry()
				if prev != nil && bytes.Compare(e.Key, prev) <= 0 {
					it.Close()
					return fmt.Errorf("lsm: L%d table %d: keys out of order at %q", level, f.ID, e.Key)
				}
				if bytes.Compare(e.Key, f.Smallest) < 0 || bytes.Compare(e.Key, f.Largest) > 0 {
					it.Close()
					return fmt.Errorf("lsm: L%d table %d: key %q outside manifest bounds [%q,%q]",
						level, f.ID, e.Key, f.Smallest, f.Largest)
				}
				prev = append(prev[:0], e.Key...)
				count++
			}
			err = it.Err()
			it.Close()
			if err != nil {
				return fmt.Errorf("lsm: L%d table %d: %w", level, f.ID, err)
			}
			if count != f.NumEntries {
				return fmt.Errorf("lsm: L%d table %d: iterated %d entries, manifest says %d",
					level, f.ID, count, f.NumEntries)
			}
			if cl, ok := t.(*sstable.CLReader); ok && !slices.Equal(cl.LogIDs(), f.Logs()) {
				return fmt.Errorf("lsm: L%d CL-SSTable %d: manifest pins logs %v, index points into %v",
					level, f.ID, f.Logs(), cl.LogIDs())
			}
			for _, id := range f.Logs() {
				if !db.fs.Exists(wal.FileName(id)) {
					return fmt.Errorf("lsm: L%d CL-SSTable %d: pinned log %d missing", level, f.ID, id)
				}
			}
		}
	}
	return nil
}
