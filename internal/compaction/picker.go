package compaction

import (
	"bytes"
	"sort"

	"repro/internal/hll"
	"repro/internal/manifest"
)

// Strategy selects the compaction layout policy.
type Strategy uint8

const (
	// Leveled is the RocksDB-style leveled compaction the paper's
	// substrate and TRIAD both use.
	Leveled Strategy = iota
	// SizeTiered is a Cassandra-style size-tiered strategy: every table
	// lives in L0 (overlapping ranges allowed) and groups of
	// similar-sized tables are merged into one larger table. The paper
	// (§2) notes TRIAD's techniques "could easily be adapted to
	// size-tiered approaches"; this strategy is that adaptation —
	// TRIAD-DISK's HLL overlap estimate picks the most duplicate-dense
	// bucket, the same use Cassandra put HLL to (§6).
	SizeTiered
)

// PickerOptions configures compaction triggering.
type PickerOptions struct {
	// Strategy selects leveled (default) or size-tiered compaction.
	Strategy Strategy
	// L0CompactionTrigger is the L0 file count at which a baseline engine
	// compacts L0 into L1 (RocksDB default: 4).
	L0CompactionTrigger int
	// BaseLevelBytes is the target size of L1; level n has target
	// BaseLevelBytes * Multiplier^(n-1).
	BaseLevelBytes int64
	// Multiplier is the per-level size ratio (RocksDB default: 10).
	Multiplier int64

	// TriadDisk enables the deferred-compaction policy.
	TriadDisk bool
	// OverlapRatioThreshold is the minimum HLL overlap ratio among L0
	// files required to compact before MaxFilesL0 forces it (paper: 0.4).
	OverlapRatioThreshold float64
	// MaxFilesL0 is the hard cap on L0 files (paper: 6).
	MaxFilesL0 int

	// MinMergeWidth / MaxMergeWidth bound a size-tiered merge
	// (Cassandra defaults: 4 and 32).
	MinMergeWidth int
	MaxMergeWidth int
	// BucketRatio is the size similarity bound: a bucket holds files
	// within [avg/BucketRatio, avg*BucketRatio] (default 2.0).
	BucketRatio float64
}

// DefaultPickerOptions mirrors the paper's configuration.
func DefaultPickerOptions() PickerOptions {
	return PickerOptions{
		L0CompactionTrigger:   4,
		BaseLevelBytes:        8 << 20,
		Multiplier:            10,
		TriadDisk:             true,
		OverlapRatioThreshold: 0.4,
		MaxFilesL0:            6,
	}
}

// Job describes one compaction: merge Inputs (level Level) with Overlaps
// (level Level+1) into new tables at level OutputLevel.
type Job struct {
	Level       int
	OutputLevel int
	Inputs      []*manifest.FileMeta
	Overlaps    []*manifest.FileMeta
	// Deferred reports (for observability) that L0 compaction was
	// considered but deferred by TRIAD-DISK this round.
	Deferred bool
	// WholeTree reports that the job merges every file in the tree, so
	// tombstones may be dropped even when the output stays in L0
	// (size-tiered full compaction).
	WholeTree bool
	// Move reports that the single input (level >= 1) overlaps nothing in
	// the output level, so it can be relinked there by a manifest edit
	// instead of being rewritten.
	Move bool
}

// Picker decides what to compact next. Below L0 every choice is a
// function of next-level overlap: a push into an intermediate level takes
// the file that drags in the fewest next-level bytes per byte of its own
// (RocksDB's kMinOverlappingRatio); only the push into the bottommost
// non-empty level walks the level's files round-robin, so that every key
// range reaches the level where its stale versions are finally dropped.
type Picker struct {
	opts PickerOptions
	// cursor counts, per level, the pushes made into the bottommost
	// level; the next one takes file cursor mod the level's file count.
	cursor [manifest.NumLevels]int
}

// NewPicker returns a Picker with the given options.
func NewPicker(opts PickerOptions) *Picker {
	if opts.L0CompactionTrigger <= 0 {
		opts.L0CompactionTrigger = 4
	}
	if opts.Multiplier <= 0 {
		opts.Multiplier = 10
	}
	if opts.BaseLevelBytes <= 0 {
		opts.BaseLevelBytes = 8 << 20
	}
	if opts.MaxFilesL0 <= 0 {
		opts.MaxFilesL0 = 6
	}
	if opts.MinMergeWidth <= 0 {
		opts.MinMergeWidth = 4
	}
	if opts.MaxMergeWidth <= 0 {
		opts.MaxMergeWidth = 32
	}
	if opts.BucketRatio <= 1 {
		opts.BucketRatio = 2.0
	}
	return &Picker{opts: opts}
}

// TargetSize returns the byte budget of level l (l >= 1).
func (p *Picker) TargetSize(l int) int64 {
	t := p.opts.BaseLevelBytes
	for i := 1; i < l; i++ {
		t *= p.opts.Multiplier
	}
	return t
}

// ShouldDeferL0 implements Algorithm 2's deferCompaction: true means "wait
// for more L0 files". sketches are the HLL sketches of the current L0
// files (paper: the overlap ratio is computed over the L0 files; Figure 5
// also folds in the overlapping L1 files — we follow Algorithm 2, which
// uses the L0 files, and expose the policy for ablation).
func (p *Picker) ShouldDeferL0(numL0 int, sketches []*hll.Sketch) bool {
	if !p.opts.TriadDisk {
		return false
	}
	if numL0 >= p.opts.MaxFilesL0 {
		return false // forced
	}
	var total float64
	for _, s := range sketches {
		total += float64(s.Count())
	}
	if total == 0 {
		return true
	}
	ratio := hll.OverlapRatio(sketches)
	return ratio < p.opts.OverlapRatioThreshold
}

// OverlapRatioL0 reports the current HLL overlap ratio (observability).
func OverlapRatioL0(sketches []*hll.Sketch) float64 { return hll.OverlapRatio(sketches) }

// Pick returns the next compaction job for version v, or nil if the tree
// is in shape. sketchOf must return the HLL sketch of an L0 file (used
// only when TRIAD-DISK is on).
func (p *Picker) Pick(v *manifest.Version, sketchOf func(*manifest.FileMeta) *hll.Sketch) *Job {
	if p.opts.Strategy == SizeTiered {
		return p.pickSizeTiered(v, sketchOf)
	}
	// L0 first: it gates reads (every L0 file is probed).
	l0 := v.Levels[0]
	if len(l0) >= p.opts.L0CompactionTrigger {
		if p.opts.TriadDisk {
			sketches := make([]*hll.Sketch, 0, len(l0))
			for _, f := range l0 {
				if s := sketchOf(f); s != nil {
					sketches = append(sketches, s)
				}
			}
			if p.ShouldDeferL0(len(l0), sketches) {
				return &Job{Level: 0, Deferred: true}
			}
			// TRIAD-DISK compacts every L0 file together (one multi-way
			// merge) so a key occurring in several L0 files is compacted
			// once — the premature/iterative compaction fix of §3(2).
			lo, hi := KeyRangeOf(l0)
			return &Job{Level: 0, OutputLevel: 1, Inputs: append([]*manifest.FileMeta(nil), l0...), Overlaps: v.Overlap(1, lo, hi)}
		}
		// Baseline behaviour per §3(2): "files in L0 are compacted to
		// higher levels one at a time, resulting in several consecutive
		// compaction operations" — merge the oldest L0 file alone.
		oldest := l0[len(l0)-1] // L0 is ordered newest-first
		return &Job{Level: 0, OutputLevel: 1, Inputs: []*manifest.FileMeta{oldest}, Overlaps: v.Overlap(1, oldest.Smallest, oldest.Largest)}
	}
	// Size-triggered compactions for L1..Ln-1, highest score first.
	bestLevel, bestScore := -1, 1.0
	for l := 1; l < manifest.NumLevels-1; l++ {
		if len(v.Levels[l]) == 0 {
			continue
		}
		score := float64(v.LevelSize(l)) / float64(p.TargetSize(l))
		if score > bestScore {
			bestLevel, bestScore = l, score
		}
	}
	if bestLevel < 0 {
		return nil
	}
	in, overlaps := p.pickFile(v, bestLevel)
	return &Job{
		Level:       bestLevel,
		OutputLevel: bestLevel + 1,
		Inputs:      []*manifest.FileMeta{in},
		Overlaps:    overlaps,
		Move:        len(overlaps) == 0,
	}
}

// pickFile chooses which file of the (non-empty, over-target) level l to
// push into l+1, and returns it with the l+1 files it overlaps.
func (p *Picker) pickFile(v *manifest.Version, l int) (*manifest.FileMeta, []*manifest.FileMeta) {
	files, next := v.Levels[l], v.Levels[l+1]
	intermediate := false
	for d := l + 2; d < manifest.NumLevels; d++ {
		if len(v.Levels[d]) > 0 {
			intermediate = true
			break
		}
	}
	if !intermediate {
		// Bottommost push: min-overlap here would keep choosing the
		// sparse key ranges, and the dense ones would never reach the
		// level where their stale versions are finally dropped.
		i := p.cursor[l] % len(files)
		p.cursor[l]++
		in := files[i]
		return in, v.Overlap(l+1, in.Smallest, in.Largest)
	}
	// One sweep over the two sorted levels: j trails at the first next-
	// level file that can still overlap files[i]; a next-level file is
	// revisited only when it spans the gap between two inputs, so the
	// whole pick is O(len(files)+len(next)). Ties go to the smallest key.
	best, bestLo, bestHi := -1, 0, 0
	var bestRatio float64
	j := 0
	for i, f := range files {
		for j < len(next) && bytes.Compare(next[j].Largest, f.Smallest) < 0 {
			j++
		}
		k := j
		var overlapped int64
		for k < len(next) && bytes.Compare(next[k].Smallest, f.Largest) <= 0 {
			overlapped += next[k].Size
			k++
		}
		ratio := float64(overlapped) / float64(max(f.Size, 1))
		if best < 0 || ratio < bestRatio {
			best, bestRatio, bestLo, bestHi = i, ratio, j, k
		}
	}
	return files[best], next[bestLo:bestHi:bestHi]
}

// pickSizeTiered implements the size-tiered strategy: bucket the (single
// level of) tables by similar size; merge the fullest eligible bucket.
// With TRIAD-DISK, the bucket with the highest HLL overlap ratio is
// preferred (Cassandra's use of HLL, §6) and a bucket whose overlap is
// below the threshold is deferred unless it has reached MaxMergeWidth.
func (p *Picker) pickSizeTiered(v *manifest.Version, sketchOf func(*manifest.FileMeta) *hll.Sketch) *Job {
	files := append([]*manifest.FileMeta(nil), v.Levels[0]...)
	if len(files) < p.opts.MinMergeWidth {
		return nil
	}
	// Sort by size ascending, then group into similarity buckets.
	sort.Slice(files, func(i, j int) bool { return files[i].Size < files[j].Size })
	var buckets [][]*manifest.FileMeta
	cur := []*manifest.FileMeta{files[0]}
	for _, f := range files[1:] {
		if float64(f.Size) <= p.opts.BucketRatio*float64(cur[0].Size) {
			cur = append(cur, f)
			continue
		}
		buckets = append(buckets, cur)
		cur = []*manifest.FileMeta{f}
	}
	buckets = append(buckets, cur)

	var (
		best        []*manifest.FileMeta
		bestOverlap = -1.0
		deferred    bool
	)
	for _, b := range buckets {
		if len(b) < p.opts.MinMergeWidth {
			continue
		}
		if len(b) > p.opts.MaxMergeWidth {
			b = b[:p.opts.MaxMergeWidth]
		}
		if !p.opts.TriadDisk {
			if best == nil || len(b) > len(best) {
				best = b
			}
			continue
		}
		sketches := make([]*hll.Sketch, 0, len(b))
		for _, f := range b {
			if s := sketchOf(f); s != nil {
				sketches = append(sketches, s)
			}
		}
		ratio := hll.OverlapRatio(sketches)
		if ratio < p.opts.OverlapRatioThreshold && len(b) < p.opts.MaxMergeWidth {
			deferred = true // not enough duplication yet; wait
			continue
		}
		if ratio > bestOverlap {
			best, bestOverlap = b, ratio
		}
	}
	if best == nil {
		if deferred {
			return &Job{Level: 0, Deferred: true}
		}
		return nil
	}
	return &Job{
		Level:       0,
		OutputLevel: 0,
		Inputs:      best,
		WholeTree:   len(best) == len(files),
	}
}

// KeyRangeOf returns the union key range of files.
func KeyRangeOf(files []*manifest.FileMeta) (lo, hi []byte) {
	for i, f := range files {
		if i == 0 {
			lo, hi = f.Smallest, f.Largest
			continue
		}
		if bytes.Compare(f.Smallest, lo) < 0 {
			lo = f.Smallest
		}
		if bytes.Compare(f.Largest, hi) > 0 {
			hi = f.Largest
		}
	}
	return lo, hi
}
