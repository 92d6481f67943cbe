package compaction

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/hll"
	"repro/internal/manifest"
)

// The L0 limits and the level fan-out are constants, not options: the paper
// runs TRIAD-DISK at one setting (§4.2, §5.1) and its RocksDB baseline at
// stock triggers, and so does every caller.
const (
	// L0CompactionTrigger is the L0 pressure (Picker.L0Pressure) at which
	// L0 is owed a merge into L1, and TRIAD-DISK first weighs deferring it
	// (RocksDB's level0_file_num_compaction_trigger default).
	L0CompactionTrigger = 4
	// MaxFilesL0 is the L0 pressure at which TRIAD-DISK acts on L0
	// whatever the overlap (paper §4.2: 6 files): it merges L0 into L1 or,
	// where L0 can fold, folds its newest run.
	MaxFilesL0 = 6
	// OverlapRatioThreshold is the least HLL overlap ratio among L0 files at
	// which TRIAD-DISK acts on L0 before MaxFilesL0 forces it (paper §4.2).
	OverlapRatioThreshold = 0.4
	// LevelMultiplier is the largest fan-out between adjacent levels before
	// a level is added (RocksDB's max_bytes_for_level_multiplier default):
	// the deepest level opens the next one when it outgrows
	// BaseLevelBytes * LevelMultiplier^(level-1), and no level's target
	// exceeds LevelMultiplier times the one above it.
	LevelMultiplier = 10
)

// PickerOptions configures compaction triggering.
type PickerOptions struct {
	// BaseLevelBytes is the target size of L1, the one fixed rung of the
	// ladder; the levels between L1 and the deepest non-empty level are
	// sized from that level's bytes (see Picker.Targets). Required.
	BaseLevelBytes int64
	// TriadDisk enables the deferred-compaction policy.
	TriadDisk bool
	// L0LogBytes is the floor of L0's log ceiling (Picker.L0LogCeiling),
	// the commit-log bytes L0 may pin whatever its merge would rewrite, and
	// nonzero only where L0 can fold (TRIAD-DISK with TRIAD-LOG):
	// MaxFilesL0 times the commit-log size, what MaxFilesL0 full
	// CL-SSTables pin. See Pick.
	L0LogBytes int64
}

// Job describes one compaction: merge Inputs (level Level) with Overlaps
// into new tables at level OutputLevel. Overlaps are the files of levels
// Level+1 to OutputLevel under the merge's key range, level by level and in
// key order within a level; only an L0 merge that goes deep (see Pick)
// spans more than one level.
type Job struct {
	Level       int
	OutputLevel int
	Inputs      []*manifest.FileMeta
	Overlaps    []*manifest.FileMeta
	// Spill is the part of Overlaps on OutputLevel, in key order, whose
	// key ranges the merge writes one level deeper, to OutputLevel+1, and
	// SpillOverlaps are the files of OutputLevel+1 those ranges overlap, in
	// key order; the merge consumes them too. SpillKept are the files of
	// OutputLevel+1 between the spilled ranges that the merge leaves in
	// place, in key order: an output there ends before one, so that it
	// never spans it. All three are empty unless the merge would leave
	// OutputLevel over its target (see Picker.Pick).
	Spill, SpillOverlaps, SpillKept []*manifest.FileMeta
	// Deferred reports (for observability) that TRIAD-DISK deferred the L0
	// compaction this round. The job is empty unless Pick was forced, in
	// which case it is the merge that was deferred.
	Deferred bool
	// Fold reports an L0 job that folds Inputs, the newest run of L0 (see
	// foldRun), into one CL-SSTable in L0 by merging their indexes, instead
	// of merging L0 into L1 (see Pick). OutputLevel is 0 and Overlaps empty.
	Fold bool
	// Move reports that the single input (level >= 1) overlaps nothing in
	// the output level, so it can be relinked there by a manifest edit
	// instead of being rewritten.
	Move bool
	// Score is the pressure that triggered the job: the input level's
	// bytes over its target, or for L0 its pressure over the trigger.
	Score float64
	// Rule names how a leveled input below L0 was chosen (RuleMinOverlap),
	// or for an L0 job where L0 can fold, why it folds or merges (RuleFold,
	// RuleRentPaid, RuleLogCeiling, RuleDrain); empty for other L0 jobs.
	// Note backs an L0 job with L0's read depth against its file count
	// and, where L0 can fold, the rent paid against the merge's price and
	// the logs pinned against their ceiling; a fold's note first says how
	// many tables its run took and left, and why the run stopped.
	Rule, Note string
}

// RuleMinOverlap is how Picker chooses the file to push out of an
// over-target level below L0: the one that drags in the fewest next-level
// bytes per byte of its own.
const RuleMinOverlap = "min-overlap"

// Why an L0 that can fold is folded or merged (see Pick).
const (
	RuleFold       = "fold"
	RuleRentPaid   = "rent paid"
	RuleLogCeiling = "log ceiling"
	RuleDrain      = "drain"
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
// triggered it, the rule that chose the input and the overlap it costs —
// or, for L0 where it can fold, the rule that folded or merged it and the
// numbers that rule compared.
func (j *Job) Why() string {
	if j.Fold {
		return j.Note
	}
	if j.Level == 0 {
		why := fmt.Sprintf("score %.2f, overlap ratio %.2f", j.Score, j.OverlapRatio())
		if j.Rule != "" {
			why += ", merge: " + j.Rule
		}
		return why + ", " + j.Note
	}
	return fmt.Sprintf("score %.2f, %s ratio %.2f", j.Score, j.Rule, j.OverlapRatio())
}

// Picker decides what to compact next. Below L0 every choice is a
// function of next-level overlap: a push takes the file that drags in the
// fewest next-level bytes per byte of its own (RocksDB's
// kMinOverlappingRatio). A Picker holds no state between picks: the job
// is a function of the version alone.
type Picker struct {
	opts PickerOptions
}

// NewPicker returns a Picker with the given options.
func NewPicker(opts PickerOptions) *Picker {
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
// L0 is triggered by L0Pressure). The tree is sized from its bottom: with
// b the deepest non-empty level, L1's target is BaseLevelBytes, the levels
// between L1 and b grow by the equal fan-out that reaches b's actual size
// in b-1 steps (never more than LevelMultiplier), and b itself — like the
// empty levels below it — gets BaseLevelBytes * LevelMultiplier^(l-1), the
// size at which it opens the next level. Equal fan-out is the write-optimal
// split of a fixed depth, and every byte an intermediate level may not hold
// is a stale version the bottom level gets to drop. With b <= 2 there is no
// intermediate level and the targets are the plain geometric ladder.
func (p *Picker) Targets(v *manifest.Version) [manifest.NumLevels]int64 {
	var t [manifest.NumLevels]int64
	limit := p.opts.BaseLevelBytes
	for l := 1; l < manifest.NumLevels; l++ {
		t[l] = limit
		limit *= LevelMultiplier
	}
	b := bottomLevel(v)
	if b <= 2 {
		return t
	}
	base := float64(p.opts.BaseLevelBytes)
	fanout := math.Pow(float64(v.LevelSize(b))/base, 1/float64(b-1))
	fanout = max(minFanout, min(fanout, LevelMultiplier))
	size := base
	for l := 2; l < b; l++ {
		size *= fanout
		t[l] = int64(size)
	}
	return t
}

// Scores returns every level's target (Targets) and its compaction
// pressure: bytes over target, or for L0 its L0Pressure over the
// compaction trigger. Above 1 the level is owed a compaction.
func (p *Picker) Scores(v *manifest.Version) (targets [manifest.NumLevels]int64, scores [manifest.NumLevels]float64) {
	targets = p.Targets(v)
	scores[0] = float64(p.L0Pressure(v.Levels[0])) / L0CompactionTrigger
	for l := 1; l < manifest.NumLevels; l++ {
		scores[l] = float64(v.LevelSize(l)) / float64(targets[l])
	}
	return targets, scores
}

// Debt estimates the bytes of compaction work v owes before Pick returns
// nil: all of L0 once its pressure has reached the compaction trigger, in
// the bytes it will take up as sorted tables (logicalBytes), plus each
// deeper level's excess over its target (the last level has nowhere to go).
func (p *Picker) Debt(v *manifest.Version) int64 {
	var debt int64
	if p.L0Pressure(v.Levels[0]) >= L0CompactionTrigger {
		debt += logicalBytes(v, v.Levels[0])
	}
	targets := p.Targets(v)
	for l := 1; l < manifest.NumLevels-1; l++ {
		debt += max(0, v.LevelSize(l)-targets[l])
	}
	return debt
}

// shouldDeferL0 implements Algorithm 2's deferCompaction: true means "wait
// for more L0 files". pressure is L0's L0Pressure — its file count, or
// where L0 can fold its read depth — and forces the act at MaxFilesL0.
// The overlap ratio is that of the HLL sketches of the L0 files l0 (paper:
// the overlap ratio is computed over the L0 files; Figure 5 also folds in
// the overlapping L1 files — we follow Algorithm 2, which uses the L0
// files).
func (p *Picker) shouldDeferL0(pressure int, l0 []*manifest.FileMeta) bool {
	if !p.opts.TriadDisk {
		return false
	}
	if pressure >= MaxFilesL0 {
		return false // forced
	}
	sketches := make([]*hll.Sketch, 0, len(l0))
	var total float64
	for _, f := range l0 {
		if f.Sketch != nil {
			sketches = append(sketches, f.Sketch)
			total += float64(f.Sketch.Count())
		}
	}
	if total == 0 {
		return true
	}
	return hll.OverlapRatio(sketches) < OverlapRatioThreshold
}

// Pick returns the next compaction job for version v, or nil if the tree
// is in shape. Under TRIAD-DISK, every L0 file carries its key sketch
// (manifest.FileMeta.Sketch). force drains L0: it overrides a TRIAD-DISK
// deferral (the job is then the merge that was deferred, still marked
// Deferred) and merges L0 below its trigger.
//
// An L0 merge goes deep: it writes the deepest level above the bottom one
// whose bytes under its key range, together with those of every level
// above it, the batch (L0's logicalBytes) at least matches, and consumes
// those bytes on every level it passes (see deepen); otherwise it writes
// L1. A merge that would overfill its output level sends part of it one
// level deeper (see spill), into the bottom level too, instead of writing
// it there only for the next push to carry it on. Nothing is written into
// a level just to be pushed out of it.
//
// Where L0 can fold — TRIAD-DISK and TRIAD-LOG, every L0 table a
// CL-SSTable — L0 that TRIAD-DISK would merge is folded instead (Job.Fold:
// an index-only merge of L0's newest run that writes no sorted table and
// retires no log), unless one of two things holds. Either the folds have
// paid for the merge: the index bytes they wrote since L0 was last merged
// have reached its price, every byte of existing tables it rewrites (the
// L1 overlap and the L2 files under its spill) — the rent-or-buy rule,
// which spends on folds at most what it saves by merging less often. The
// price is that of the merge into L1, whether or not the merge goes deep.
// Or L0 pins so much commit log that one more full log could take it past
// its ceiling (L0LogCeiling: L0LogPerPriceByte times the price, or the
// L0LogBytes floor if more), which also makes L0 act below its trigger.
// The multiple leaves the rent room to end an overlapping L0's cycle, so
// the ceiling ends one only where the folds lag behind the flushes.
//
// L0's trigger, TRIAD-DISK's force and its deferral count L0Pressure: the
// file count, or where L0 can fold the read depth. A key-disjoint L0, such
// as a sequential load's, is then neither folded nor merged by its trigger
// and leaves through the log ceiling; the ceiling is what bounds it.
func (p *Picker) Pick(v *manifest.Version, force bool) *Job {
	targets, scores := p.Scores(v)
	// L0 first: it gates reads (every L0 file is probed).
	if job := p.pickL0(v, force, targets, scores[0]); job != nil {
		return job
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
	in, overlaps := p.pickFile(v, bestLevel)
	return &Job{
		Level:       bestLevel,
		OutputLevel: bestLevel + 1,
		Inputs:      []*manifest.FileMeta{in},
		Overlaps:    overlaps,
		Move:        len(overlaps) == 0,
		Score:       bestScore,
		Rule:        RuleMinOverlap,
	}
}

// pickL0 returns L0's job — a merge, a fold or a deferral — or nil if L0
// owes none.
func (p *Picker) pickL0(v *manifest.Version, force bool, targets [manifest.NumLevels]int64, score float64) *Job {
	l0 := v.Levels[0]
	canFold, rent, logs := p.l0Folds(l0)
	pressure := l0Pressure(l0, canFold)
	// L0LogBytes is the least the ceiling can be: below it, L0 owes
	// nothing its trigger does not.
	if pressure < L0CompactionTrigger && !(canFold && p.nearCeiling(logs, p.opts.L0LogBytes)) && !(force && len(l0) > 0) {
		return nil
	}
	// Baseline behaviour per §3(2): "files in L0 are compacted to higher
	// levels one at a time, resulting in several consecutive compaction
	// operations" — merge the oldest L0 file alone. TRIAD-DISK compacts
	// every L0 file together (one multi-way merge) so a key occurring in
	// several L0 files is compacted once — the premature/iterative
	// compaction fix of §3(2).
	inputs := l0[len(l0)-1:] // L0 is ordered newest-first
	if p.opts.TriadDisk {
		inputs = l0
	}
	// The merge into L1 is worked out once: it prices L0, and it is the
	// job unless the job goes deep.
	job := p.l0Merge(v, inputs, targets[1])
	job.Score = score
	job.Note = fmt.Sprintf("depth %d of %d files", L0Depth(l0), len(l0))
	atCeiling := false
	var price, ceiling int64
	if canFold {
		price = job.rewrites()
		ceiling = p.l0LogCeiling(price)
		atCeiling = p.nearCeiling(logs, ceiling)
		if pressure < L0CompactionTrigger && !atCeiling && !force {
			return nil
		}
	}
	if p.opts.TriadDisk && pressure >= L0CompactionTrigger && !atCeiling {
		if job.Deferred = p.shouldDeferL0(pressure, l0); job.Deferred && !force {
			return &Job{Level: 0, Deferred: true}
		}
	}
	if canFold {
		job.Note += fmt.Sprintf(", rent %.2f/%.2f MB, logs %.2f/%.2f MiB",
			float64(rent)/1e6, float64(price)/1e6, float64(logs)/(1<<20), float64(ceiling)/(1<<20))
		switch {
		case force:
			job.Rule = RuleDrain
		case atCeiling:
			job.Rule = RuleLogCeiling
		case rent >= price:
			job.Rule = RuleRentPaid
		default:
			n, why := foldRun(l0)
			job.Rule, job.Fold, job.OutputLevel = RuleFold, true, 0
			job.Inputs, job.Note = l0[:n:n], fmt.Sprintf("fold %d->1 of %d, left %d%s, %s", n, len(l0), len(l0)-n, why, job.Note)
			job.Overlaps, job.Spill, job.SpillOverlaps, job.SpillKept = nil, nil, nil, nil
			return job
		}
	}
	p.deepen(v, job, targets)
	return job
}

// foldRun returns how many of the newest tables of l0, newest first, a
// fold takes, and why it took no more. The run is at least long enough to
// leave L0 under its trigger, L0CompactionTrigger-1 tables with the fold's
// output (the read depth never exceeds the table count), and takes the
// next older table while its index is no larger than the run's so far. A
// table is then folded again only when the tables folded after it have
// grown as large as it is, so its entries are rewritten O(log n) times
// over n flushes instead of once per fold, as a fold of all of L0 would
// (RocksDB's universal compaction merges runs of similar size alike).
func foldRun(l0 []*manifest.FileMeta) (n int, why string) {
	least := len(l0) - (L0CompactionTrigger - 2)
	var run int64
	for _, f := range l0[:least] {
		run += f.Size
	}
	for n = least; n < len(l0) && l0[n].Size <= run; n++ {
		run += l0[n].Size
	}
	if n == len(l0) {
		return n, ""
	}
	if n == least {
		why = "depth bound; "
	}
	return n, fmt.Sprintf(" (%snext older %.3g MB > run %.3g MB)", why, float64(l0[n].Size)/1e6, float64(run)/1e6)
}

// l0Merge returns the merge of inputs, L0 files, into L1, with its spill.
// target is L1's.
func (p *Picker) l0Merge(v *manifest.Version, inputs []*manifest.FileMeta, target int64) *Job {
	lo, hi := KeyRangeOf(inputs)
	job := &Job{
		Level: 0, OutputLevel: 1,
		Inputs:   append([]*manifest.FileMeta(nil), inputs...),
		Overlaps: v.Overlap(1, lo, hi),
	}
	p.spill(v, job, target)
	return job
}

// deepen sends job, the merge of L0 into L1, as deep as its batch allows:
// to the deepest level d above the bottom level for which the batch, the
// logical bytes of its inputs, is at least the bytes of L1 to d under the
// merge's key range. Each level it passes adds the files under the key
// range of the inputs and of the files taken above it, so that no file
// left on the output level overlaps the merge. A merge that goes deeper
// spills its new output level's overflow afresh. The key range widens only
// with what the merge consumes, so a batch weighs only the bytes under its
// own range (Dostoevsky's lazy leveling merges a run that holds its own
// against the levels under it straight past them).
func (p *Picker) deepen(v *manifest.Version, job *Job, targets [manifest.NumLevels]int64) {
	batch := logicalBytes(v, job.Inputs)
	under := sizeOf(job.Overlaps)
	overlaps, out, levels := job.Overlaps, 1, "L1"
	for l := 2; l < bottomLevel(v); l++ {
		lo, hi := KeyRangeOf(append(append([]*manifest.FileMeta(nil), job.Inputs...), overlaps...))
		next := v.Overlap(l, lo, hi)
		if batch < under+sizeOf(next) {
			break
		}
		overlaps = append(overlaps[:len(overlaps):len(overlaps)], next...)
		out, under, levels = l, under+sizeOf(next), levels+fmt.Sprintf("+L%d", l)
	}
	if out == 1 {
		return
	}
	job.OutputLevel, job.Overlaps = out, overlaps
	job.Spill, job.SpillOverlaps, job.SpillKept = nil, nil, nil
	job.Note = fmt.Sprintf("deep: batch %.3g MB ≥ %s under range %.3g MB, %s", float64(batch)/1e6, levels, float64(under)/1e6, job.Note)
	p.spill(v, job, targets[out])
}

func sizeOf(files []*manifest.FileMeta) int64 {
	var n int64
	for _, f := range files {
		n += f.Size
	}
	return n
}

// rewrites is the bytes of existing tables the job rewrites: its overlaps
// and, with a spill, the files under the spilled ranges.
func (j *Job) rewrites() int64 {
	return sizeOf(j.Overlaps) + sizeOf(j.SpillOverlaps)
}

// L0LogPerPriceByte is the commit log L0 may pin per byte of its merge's
// price, above the L0LogBytes floor (see L0LogCeiling). It is set so that
// the rent, not the ceiling, ends an overlapping L0's cycle while its folds
// keep pace; the ceiling then bounds only a key-disjoint L0, which rewrites
// nothing and keeps the floor, and an L0 whose folds lag behind its
// flushes. TestL0LogPerPriceByte models both. A cycle the ceiling cuts
// short is a shallow merge into L1 with a spill into L2 (see Pick), whose
// bytes the next deep merge rewrites. On net_mixed the folds write about
// 0.12–0.26 index bytes per byte of log, so the rent is paid at 4–8 times
// the price, and the ceiling merges at 3 came with no write stall. There
// (two cores, seeds 1, 2 and 11, 16 s) multiples of 3, 4, 5, 6 and 8 gave
// write_amp 2.50–2.87, 2.37–2.56, 2.33–2.36, 2.25–2.41 and 2.36–2.37,
// ended 13–17, 10–14, 4, 1–5 and 0 merges per run at the ceiling, and gave
// read_amp 1.000–1.009, 1.02–1.03, 1.04, 1.026–1.048 and 1.03–1.04 and
// proc.rss_peak_mb 352–407, 401–517, 456–602, 432–489 and 431–498: the
// saving flattens from 5 up, and 6 keeps it with the fewest ceiling
// merges (15 interleaved pairs of 3 and 6 on seeds 1 and 2: write_amp
// 2.69 → 2.38). On ingest_uniform, whose folds pay faster, the ceiling
// ends no cycle from 4 up and write_amp reads 2.82 at 4, 6 and 8 alike.
const L0LogPerPriceByte = 6

// l0LogCeiling is the most commit log an L0 whose merge rewrites price
// bytes may pin.
func (p *Picker) l0LogCeiling(price int64) int64 {
	return max(p.opts.L0LogBytes, L0LogPerPriceByte*price)
}

// nearCeiling reports whether one more flush, which adds at most about one
// full log, could carry L0's logs past ceiling.
func (p *Picker) nearCeiling(logs, ceiling int64) bool {
	return logs+p.opts.L0LogBytes/MaxFilesL0 > ceiling
}

// L0LogCeiling is the most commit log L0 may pin in v before it merges
// whatever its rent: L0LogBytes, or L0LogPerPriceByte times the bytes of
// existing tables a merge of all of L0 would rewrite if that is more. Zero
// where L0 cannot fold: folds are off or L0 holds a sorted table.
func (p *Picker) L0LogCeiling(v *manifest.Version) int64 {
	l0 := v.Levels[0]
	if len(l0) == 0 {
		return p.opts.L0LogBytes
	}
	if canFold, _, _ := p.l0Folds(l0); !canFold {
		return 0
	}
	return p.l0LogCeiling(p.l0Merge(v, l0, p.Targets(v)[1]).rewrites())
}

// pickFile chooses which file of the (non-empty, over-target) level l to
// push into l+1 — the min-overlap one — and returns it with the l+1 files
// it overlaps.
func (p *Picker) pickFile(v *manifest.Version, l int) (*manifest.FileMeta, []*manifest.FileMeta) {
	files, next := v.Levels[l], v.Levels[l+1]
	// One sweep over the two sorted levels. Ties go to the smallest key.
	best, bestLo, bestHi := -1, 0, 0
	var bestRatio float64
	c := nextCursor{next: next}
	for i, f := range files {
		lo, hi, overlapped := c.overlap(f)
		ratio := float64(overlapped) / float64(max(f.Size, 1))
		if best < 0 || ratio < bestRatio {
			best, bestRatio, bestLo, bestHi = i, ratio, lo, hi
		}
	}
	return files[best], next[bestLo:bestHi:bestHi]
}

// nextCursor finds the files of the next level that each file of a level
// overlaps, for files visited in key order: lo trails at the first
// next-level file that can still overlap, and a next-level file is
// revisited only when it spans the gap between two files, so one pass over
// a level costs O(len(files)+len(next)).
type nextCursor struct {
	next []*manifest.FileMeta
	lo   int
}

// overlap returns the range next[lo:hi] that f overlaps and its bytes.
func (c *nextCursor) overlap(f *manifest.FileMeta) (lo, hi int, overlapped int64) {
	for c.lo < len(c.next) && bytes.Compare(c.next[c.lo].Largest, f.Smallest) < 0 {
		c.lo++
	}
	hi = c.lo
	for hi < len(c.next) && bytes.Compare(c.next[hi].Smallest, f.Largest) <= 0 {
		overlapped += c.next[hi].Size
		hi++
	}
	return c.lo, hi, overlapped
}

// spill fills in job.Spill, SpillOverlaps and SpillKept for a merge into
// level n = job.OutputLevel. When the merge would leave n over target, the
// n-files the merge consumes are taken in min-overlap order — fewest n+1
// bytes per byte of their own, the smallest key on ties — until their
// bytes plus the batch's share of them cover the overflow; n+1 may be the
// bottom level. The batch is what the merge brings into n: the inputs'
// logical bytes and the files it consumes above n, shared among the
// consumed n-files in proportion to their sizes; a merge cannot spill more
// than it consumes.
func (p *Picker) spill(v *manifest.Version, job *Job, target int64) {
	n := job.OutputLevel
	batch := logicalBytes(v, job.Inputs)
	var consumed []*manifest.FileMeta
	for _, f := range job.Overlaps {
		if f.Level == n {
			consumed = append(consumed, f)
		} else {
			batch += f.Size
		}
	}
	if len(consumed) == 0 {
		return
	}
	overflow := v.LevelSize(n) + batch - target
	if overflow <= 0 {
		return
	}
	// consumed[i] overlaps next[lo:hi], whose bytes are ratio times its own.
	type candidate struct {
		i, lo, hi int
		ratio     float64
	}
	next := v.Levels[n+1]
	cands := make([]candidate, len(consumed))
	c := nextCursor{next: next}
	var consumedBytes int64
	for i, f := range consumed {
		lo, hi, overlapped := c.overlap(f)
		cands[i] = candidate{i, lo, hi, float64(overlapped) / float64(max(f.Size, 1))}
		consumedBytes += f.Size
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.ratio, b.ratio), a.i-b.i)
	})
	perByte := 1 + float64(batch)/float64(max(consumedBytes, 1))
	chosen := 0
	for covered := 0.0; chosen < len(cands) && covered < float64(overflow); chosen++ {
		covered += float64(consumed[cands[chosen].i].Size) * perByte
	}
	spilled := cands[:chosen]
	slices.SortFunc(spilled, func(a, b candidate) int { return a.i - b.i })
	end := -1 // next[:end] are taken, or -1 before the first spilled file
	for _, s := range spilled {
		lo := s.lo
		if end >= 0 {
			// The files between two spilled ranges stay; a file spanning
			// the gap overlaps both ranges and is taken once.
			lo = max(lo, end)
			job.SpillKept = append(job.SpillKept, next[end:lo]...)
		}
		job.Spill = append(job.Spill, consumed[s.i])
		job.SpillOverlaps = append(job.SpillOverlaps, next[lo:s.hi]...)
		end = s.hi
	}
}

// l0Folds reports whether L0 can fold — folds are on (L0LogBytes) and
// every L0 file is a CL-SSTable — and, if so, the rent L0 has paid (the
// index bytes folds wrote since its last merge) and the log bytes it pins.
func (p *Picker) l0Folds(l0 []*manifest.FileMeta) (canFold bool, rent, logs int64) {
	if p.opts.L0LogBytes == 0 || len(l0) == 0 {
		return false, 0, 0
	}
	for _, f := range l0 {
		if f.Logs() == nil {
			return false, 0, 0
		}
		rent += f.FoldBytes
		logs += f.LogBytes
	}
	return true, rent, logs
}

// L0Pressure is what L0's trigger, force, deferral, score and debt count,
// and the engine's write stop with them: where L0 can fold, its read depth
// (L0Depth); elsewhere its file count. Only where L0 can fold does the
// log ceiling bound a key-disjoint L0, so only there may its files
// outnumber its depth without limit.
func (p *Picker) L0Pressure(l0 []*manifest.FileMeta) int {
	canFold, _, _ := p.l0Folds(l0)
	return l0Pressure(l0, canFold)
}

func l0Pressure(l0 []*manifest.FileMeta, canFold bool) int {
	if canFold {
		return L0Depth(l0)
	}
	return len(l0)
}

// L0Depth is L0's read depth: the most L0 tables whose key range holds any
// one key, which is what a lookup may probe (Pebble counts L0 by the same
// measure, its sublevels). A sequential load's tables are disjoint and
// have depth 1; tables that each span the key space have depth len(l0).
// The most ranges that share a key always share some range's smallest key,
// so those are the only keys counted.
func L0Depth(l0 []*manifest.FileMeta) int {
	depth := 0
	for _, f := range l0 {
		n := 0
		for _, g := range l0 {
			if bytes.Compare(g.Smallest, f.Smallest) <= 0 && bytes.Compare(f.Smallest, g.Largest) <= 0 {
				n++
			}
		}
		depth = max(depth, n)
	}
	return depth
}

// logicalBytes estimates the bytes files will take up as sorted tables.
// An SSTable counts at its size. A TRIAD-LOG CL-SSTable holds only an
// index (its values stay in the commit log), so it counts as its entries
// times the tree's measured bytes per entry over its SSTables — or, with
// no SSTable to measure yet, at its size.
func logicalBytes(v *manifest.Version, files []*manifest.FileMeta) int64 {
	var sized, clBytes, clEntries int64
	for _, f := range files {
		if f.Logs() != nil {
			clBytes += f.Size
			clEntries += int64(f.NumEntries)
		} else {
			sized += f.Size
		}
	}
	if clEntries == 0 {
		return sized + clBytes
	}
	treeBytes, treeEntries := v.SSTTotals()
	if treeEntries == 0 {
		return sized + clBytes
	}
	return sized + int64(float64(clEntries)*float64(treeBytes)/float64(treeEntries))
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
