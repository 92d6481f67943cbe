package compaction

import (
	"testing"

	"repro/internal/hll"
	"repro/internal/manifest"
)

func stPicker(triadDisk bool) *Picker {
	return NewPicker(PickerOptions{
		Strategy:              SizeTiered,
		MinMergeWidth:         4,
		MaxMergeWidth:         8,
		TriadDisk:             triadDisk,
		OverlapRatioThreshold: 0.4,
	})
}

func stFile(id uint64, size int64) *manifest.FileMeta {
	return &manifest.FileMeta{ID: id, Kind: manifest.KindSST, Level: 0, Size: size,
		Smallest: []byte("a"), Largest: []byte("z")}
}

func TestSizeTieredTooFewFiles(t *testing.T) {
	p := stPicker(false)
	v := version(stFile(1, 100), stFile(2, 100), stFile(3, 100))
	if job := p.Pick(v, nil, false); job != nil {
		t.Fatalf("job = %+v, want nil below MinMergeWidth", job)
	}
}

func TestSizeTieredBucketsBySize(t *testing.T) {
	p := stPicker(false)
	// Four small files + two huge ones: only the small bucket merges.
	v := version(
		stFile(1, 100), stFile(2, 110), stFile(3, 120), stFile(4, 130),
		stFile(5, 100_000), stFile(6, 110_000),
	)
	job := p.Pick(v, nil, false)
	if job == nil || job.Deferred {
		t.Fatalf("job = %+v", job)
	}
	if len(job.Inputs) != 4 {
		t.Fatalf("merged %d files, want the 4 similar-sized ones", len(job.Inputs))
	}
	for _, f := range job.Inputs {
		if f.Size > 1000 {
			t.Fatalf("bucket included a huge file: %d", f.Size)
		}
	}
	if job.OutputLevel != 0 {
		t.Fatalf("OutputLevel = %d, want 0", job.OutputLevel)
	}
	if job.WholeTree {
		t.Fatal("partial merge flagged WholeTree")
	}
}

func TestSizeTieredWholeTree(t *testing.T) {
	p := stPicker(false)
	v := version(stFile(1, 100), stFile(2, 100), stFile(3, 100), stFile(4, 100))
	job := p.Pick(v, nil, false)
	if job == nil || !job.WholeTree {
		t.Fatalf("job = %+v, want WholeTree", job)
	}
}

func TestSizeTieredMaxMergeWidth(t *testing.T) {
	p := stPicker(false)
	var files []*manifest.FileMeta
	for id := uint64(1); id <= 12; id++ {
		files = append(files, stFile(id, 100))
	}
	v := version(files...)
	job := p.Pick(v, nil, false)
	if job == nil || len(job.Inputs) != 8 {
		t.Fatalf("merge width = %d, want MaxMergeWidth 8", len(job.Inputs))
	}
	if job.WholeTree {
		t.Fatal("capped merge flagged WholeTree")
	}
}

func TestSizeTieredTriadDiskDefersLowOverlap(t *testing.T) {
	p := stPicker(true)
	v := version(stFile(1, 100), stFile(2, 100), stFile(3, 100), stFile(4, 100))
	// Disjoint sketches → defer.
	job := p.Pick(v, func(f *manifest.FileMeta) *hll.Sketch { return sketchWith(1000, int(f.ID)) }, false)
	if job == nil || !job.Deferred {
		t.Fatalf("job = %+v, want deferred", job)
	}
	// Identical sketches → merge.
	shared := sketchWith(1000, 0)
	job = p.Pick(v, func(*manifest.FileMeta) *hll.Sketch { return shared }, false)
	if job == nil || job.Deferred {
		t.Fatalf("job = %+v, want merge on high overlap", job)
	}
}

func TestSizeTieredTriadDiskForcedAtMaxWidth(t *testing.T) {
	p := stPicker(true)
	var files []*manifest.FileMeta
	for id := uint64(1); id <= 8; id++ {
		files = append(files, stFile(id, 100))
	}
	v := version(files...)
	// Disjoint, but the bucket is at MaxMergeWidth → forced merge.
	job := p.Pick(v, func(f *manifest.FileMeta) *hll.Sketch { return sketchWith(500, int(f.ID)) }, false)
	if job == nil || job.Deferred {
		t.Fatalf("job = %+v, want forced merge at MaxMergeWidth", job)
	}
}
