package compaction

import (
	"bytes"
	"fmt"
	"math"
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
	// BaseLevelBytes is the target size of L1, the one fixed rung of the
	// ladder; the levels between L1 and the deepest non-empty level are
	// sized from that level's bytes (see Picker.Targets).
	BaseLevelBytes int64
	// Multiplier is the largest fan-out between adjacent levels before a
	// level is added (RocksDB default: 10): the deepest level opens the
	// next one when it outgrows BaseLevelBytes * Multiplier^(level-1), and
	// no level's target exceeds Multiplier times the one above it.
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
	// Score is the pressure that triggered the job: the input level's
	// bytes over its target, or for L0 its file count over the trigger.
	Score float64
	// Rule names how a leveled input below L0 was chosen (RuleMinOverlap
	// or RuleBottomPush); empty for L0 and size-tiered jobs.
	Rule string
}

// The two ways Picker chooses the file to push out of an over-target level.
const (
	RuleMinOverlap = "min-overlap"
	RuleBottomPush = "bottom-push"
)

// OverlapRatio is the output-level bytes the job rewrites per input byte.
func (j *Job) OverlapRatio() float64 {
	var in, over int64
	for _, f := range j.Inputs {
		in += f.Size
	}
	for _, f := range j.Overlaps {
		over += f.Size
	}
	return float64(over) / float64(max(in, 1))
}

// Why renders the reason the job ran for the journal: the score that
// triggered it, the rule that chose the input and the overlap it costs.
func (j *Job) Why() string {
	rule := j.Rule
	if rule == "" {
		rule = "overlap"
	}
	return fmt.Sprintf("score %.2f, %s ratio %.2f", j.Score, rule, j.OverlapRatio())
}

// Picker decides what to compact next. Below L0 every choice is a
// function of next-level overlap: a push into an intermediate level takes
// the file that drags in the fewest next-level bytes per byte of its own
// (RocksDB's kMinOverlappingRatio); only the push into the bottommost
// non-empty level walks the level's key space in order, so that every key
// range reaches the level where its stale versions are finally dropped.
type Picker struct {
	opts PickerOptions
	// cursor holds, per level, the largest key of the file last pushed
	// into the bottommost level (LevelDB's compact_pointer); the next push
	// takes the first file that starts after it, wrapping at the end. A
	// key, not an index: the pushed file leaves the level, so an index
	// would skip the file that slides into its place. A file straddling
	// the cursor waits for the next lap: its head was pushed a moment
	// ago, and pushing it now would rewrite the output just written.
	cursor [manifest.NumLevels][]byte
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

// minFanout floors the fan-out derived from the bottom level, so that a
// bottom level that has just opened (one file) cannot pull the targets of
// the levels above it down to, or below, L1's.
const minFanout = 1.25

// bottomLevel returns the deepest non-empty level of v, at least 1.
func bottomLevel(v *manifest.Version) int {
	for l := manifest.NumLevels - 1; l > 1; l-- {
		if len(v.Levels[l]) > 0 {
			return l
		}
	}
	return 1
}

// Targets returns the byte target of every level of v (index 0 is unused:
// L0 is triggered by file count). The tree is sized from its bottom: with
// b the deepest non-empty level, L1's target is BaseLevelBytes, the levels
// between L1 and b grow by the equal fan-out that reaches b's actual size
// in b-1 steps (never more than Multiplier), and b itself — like the empty
// levels below it — gets BaseLevelBytes * Multiplier^(l-1), the size at
// which it opens the next level. Equal fan-out is the write-optimal split
// of a fixed depth, and every byte an intermediate level may not hold is a
// stale version the bottom level gets to drop. With b <= 2 there is no
// intermediate level and the targets are the plain geometric ladder.
func (p *Picker) Targets(v *manifest.Version) [manifest.NumLevels]int64 {
	var t [manifest.NumLevels]int64
	limit := p.opts.BaseLevelBytes
	for l := 1; l < manifest.NumLevels; l++ {
		t[l] = limit
		limit *= p.opts.Multiplier
	}
	b := bottomLevel(v)
	if b <= 2 {
		return t
	}
	base := float64(p.opts.BaseLevelBytes)
	fanout := math.Pow(float64(v.LevelSize(b))/base, 1/float64(b-1))
	fanout = max(minFanout, min(fanout, float64(p.opts.Multiplier)))
	size := base
	for l := 2; l < b; l++ {
		size *= fanout
		t[l] = int64(size)
	}
	return t
}

// Scores returns every level's target (Targets) and its compaction
// pressure: bytes over target, or for L0 its file count over the
// compaction trigger. Above 1 the level is owed a compaction. Size-tiered
// trees have neither and report zeros.
func (p *Picker) Scores(v *manifest.Version) (targets [manifest.NumLevels]int64, scores [manifest.NumLevels]float64) {
	if p.opts.Strategy == SizeTiered {
		return targets, scores
	}
	targets = p.Targets(v)
	scores[0] = float64(len(v.Levels[0])) / float64(p.opts.L0CompactionTrigger)
	for l := 1; l < manifest.NumLevels; l++ {
		scores[l] = float64(v.LevelSize(l)) / float64(targets[l])
	}
	return targets, scores
}

// Debt estimates the bytes of compaction work v owes before Pick returns
// nil: all of L0 once it has reached the compaction trigger, plus each
// deeper level's excess over its target (the last level has nowhere to
// go). Size-tiered trees have no per-level targets and report 0.
func (p *Picker) Debt(v *manifest.Version) int64 {
	if p.opts.Strategy == SizeTiered {
		return 0
	}
	var debt int64
	if len(v.Levels[0]) >= p.opts.L0CompactionTrigger {
		debt += v.LevelSize(0)
	}
	targets := p.Targets(v)
	for l := 1; l < manifest.NumLevels-1; l++ {
		debt += max(0, v.LevelSize(l)-targets[l])
	}
	return debt
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
	_, scores := p.Scores(v)
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
			return &Job{Level: 0, OutputLevel: 1, Inputs: append([]*manifest.FileMeta(nil), l0...), Overlaps: v.Overlap(1, lo, hi), Score: scores[0]}
		}
		// Baseline behaviour per §3(2): "files in L0 are compacted to
		// higher levels one at a time, resulting in several consecutive
		// compaction operations" — merge the oldest L0 file alone.
		oldest := l0[len(l0)-1] // L0 is ordered newest-first
		return &Job{Level: 0, OutputLevel: 1, Inputs: []*manifest.FileMeta{oldest}, Overlaps: v.Overlap(1, oldest.Smallest, oldest.Largest), Score: scores[0]}
	}
	// Size-triggered compactions for L1..Ln-1, highest score first.
	bestLevel, bestScore := -1, 1.0
	for l := 1; l < manifest.NumLevels-1; l++ {
		if scores[l] > bestScore {
			bestLevel, bestScore = l, scores[l]
		}
	}
	if bestLevel < 0 {
		return nil
	}
	in, overlaps, rule := p.pickFile(v, bestLevel)
	return &Job{
		Level:       bestLevel,
		OutputLevel: bestLevel + 1,
		Inputs:      []*manifest.FileMeta{in},
		Overlaps:    overlaps,
		Move:        len(overlaps) == 0,
		Score:       bestScore,
		Rule:        rule,
	}
}

// pickFile chooses which file of the (non-empty, over-target) level l to
// push into l+1, and returns it with the l+1 files it overlaps and the
// rule that chose it.
func (p *Picker) pickFile(v *manifest.Version, l int) (*manifest.FileMeta, []*manifest.FileMeta, string) {
	files, next := v.Levels[l], v.Levels[l+1]
	if l+1 >= bottomLevel(v) {
		// Bottommost push: min-overlap here would keep choosing the
		// sparse key ranges, and the dense ones would never reach the
		// level where their stale versions are finally dropped.
		i := 0
		if last := p.cursor[l]; last != nil {
			i = sort.Search(len(files), func(i int) bool { return bytes.Compare(files[i].Smallest, last) > 0 })
			if i == len(files) {
				i = 0
			}
		}
		in := files[i]
		p.cursor[l] = in.Largest
		return in, v.Overlap(l+1, in.Smallest, in.Largest), RuleBottomPush
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
	return files[best], next[bestLo:bestHi:bestHi], RuleMinOverlap
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
