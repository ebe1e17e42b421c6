package loader

import (
	"math"
	"testing"
	"testing/quick"
)

const gb = 1e9

func TestMonolithicVsChunked(t *testing.T) {
	shard := 10 * gb
	mono, err := Monolithic(DefaultResources, shard)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := Load(DefaultResources, shard, 256e6)
	if err != nil {
		t.Fatal(err)
	}
	// Overlap always wins on time...
	if chunked.LoadTime >= mono.LoadTime {
		t.Errorf("chunked load %.2fs should beat monolithic %.2fs", chunked.LoadTime, mono.LoadTime)
	}
	// ...and the DRAM saving is the §5 headline.
	if chunked.PeakDRAM >= mono.PeakDRAM/10 {
		t.Errorf("chunked DRAM %.2fGB should be ≪ monolithic %.2fGB", chunked.PeakDRAM/gb, mono.PeakDRAM/gb)
	}
}

func TestBottleneckIsDisk(t *testing.T) {
	// Disk (2 GB/s) is the slowest of the three default resources.
	p, err := Load(DefaultResources, 10*gb, 256e6)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bottleneck != "disk" {
		t.Errorf("bottleneck %q, want disk", p.Bottleneck)
	}
	// Loading approaches the disk-bandwidth lower bound as chunks shrink.
	lower := 10 * gb / (DefaultResources.DiskGBs * gb)
	if p.LoadTime < lower {
		t.Errorf("load %.2fs beneath the disk bound %.2fs — impossible", p.LoadTime, lower)
	}
	if p.LoadTime > lower*1.2 {
		t.Errorf("load %.2fs too far above the disk bound %.2fs for good overlap", p.LoadTime, lower)
	}
}

func TestTooFineChunksPayOverhead(t *testing.T) {
	coarse, _ := Load(DefaultResources, 10*gb, 256e6)
	tiny, err := Load(DefaultResources, 10*gb, 1e5) // 100 KB chunks: 100k chunks
	if err != nil {
		t.Fatal(err)
	}
	if tiny.LoadTime <= coarse.LoadTime {
		t.Errorf("per-chunk overhead should punish 100KB chunks: %.2fs vs %.2fs", tiny.LoadTime, coarse.LoadTime)
	}
}

func TestRecoveryFasterThanFullReload(t *testing.T) {
	// One stage of a 4-stage deployment recovers ~4x faster than reloading
	// the whole model — the §5 recovery-speed claim.
	full, err := RecoveryTime(DefaultResources, 40*gb, 256e6)
	if err != nil {
		t.Fatal(err)
	}
	stage, err := RecoveryTime(DefaultResources, 10*gb, 256e6)
	if err != nil {
		t.Fatal(err)
	}
	if stage >= full/3 {
		t.Errorf("single-stage recovery %.2fs should be ≪ full reload %.2fs", stage, full)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Load(Resources{}, gb, 1e6); err == nil {
		t.Error("expected bandwidth validation error")
	}
	if _, err := Load(DefaultResources, -1, 1e6); err == nil {
		t.Error("expected shard size error")
	}
	bad := DefaultResources
	bad.ChunkOverheadUS = -1
	if _, err := Load(bad, gb, 1e6); err == nil {
		t.Error("expected overhead validation error")
	}
}

func TestLoadProperties(t *testing.T) {
	err := quick.Check(func(shardMB, chunkMB uint16) bool {
		shard := float64(shardMB%4000+1) * 1e6
		chunk := float64(chunkMB%512+1) * 1e6
		p, err := Load(DefaultResources, shard, chunk)
		if err != nil {
			return false
		}
		// Invariants: time positive and at least the bottleneck bound;
		// chunks cover the shard; DRAM is two chunks.
		bound := shard / (DefaultResources.DiskGBs * gb)
		return p.LoadTime >= bound-1e-12 &&
			float64(p.Chunks)*p.ChunkBytes >= shard &&
			math.Abs(p.PeakDRAM-2*p.ChunkBytes) < 1e-9
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}
