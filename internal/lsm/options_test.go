package lsm

import (
	"testing"

	"repro/internal/compaction"
)

// TestEngineConstants pins the engine's fixed limits to their sources and
// their order: writers stop only past the L0 file count at which TRIAD-DISK
// must act, so that it can still defer, and TRIAD-DISK is forced to act no
// earlier than the trigger at which it starts weighing a merge.
func TestEngineConstants(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
		source    string
	}{
		{"compaction.L0CompactionTrigger", compaction.L0CompactionTrigger, 4, "RocksDB's level0_file_num_compaction_trigger default"},
		{"compaction.MaxFilesL0", compaction.MaxFilesL0, 6, "paper §4.2, §5.1"},
		{"compaction.OverlapRatioThreshold", compaction.OverlapRatioThreshold, 0.4, "paper §4.2, §5.1"},
		{"compaction.LevelMultiplier", compaction.LevelMultiplier, 10, "RocksDB's max_bytes_for_level_multiplier default"},
		{"compaction.L0LogPerPriceByte", compaction.L0LogPerPriceByte, 6, "room for net_mixed's folds, at 0.12–0.26 index bytes per log byte, to pay an overlapping L0's rent before the ceiling ends its cycle (compaction.TestL0LogPerPriceByte)"},
		{"l0StallFiles", l0StallFiles, 12, "LevelDB's kL0_StopWritesTrigger"},
		{"maxImmutableMemtables", maxImmutableMemtables, 2, "the engine's flush-queue bound since its first version"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v (%s)", c.name, c.got, c.want, c.source)
		}
	}
	stop, force, trigger := l0StallFiles, compaction.MaxFilesL0, compaction.L0CompactionTrigger
	if stop <= force || force < trigger {
		t.Errorf("want l0StallFiles %d > MaxFilesL0 %d >= L0CompactionTrigger %d", stop, force, trigger)
	}
}
