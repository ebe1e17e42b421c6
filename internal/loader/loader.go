// Package loader models LLM-PQ's on-the-fly quantized weight loading
// (paper §5 "On-The-Fly Quantizer"): the integrated model weight is
// decoupled into module-level chunks, and three resources are overlapped —
// disk→CPU reads, CPU→GPU copies, and on-GPU quantization. Fine
// granularity slashes the host DRAM needed for loading (only a couple of
// chunks are ever resident) and speeds recovery after a worker failure,
// at the price of per-chunk fixed overheads.
//
// The loading pipeline is the classic 3-stage pipeline: with chunk stage
// times t_read, t_copy, t_quant, total time = fill (sum of the three for
// the first chunk) + (n−1)·bottleneck.
package loader

import (
	"fmt"
	"math"
)

// Resources describes the host/device path.
type Resources struct {
	DiskGBs     float64 // disk (or NVMe) sequential read bandwidth
	PCIeGBs     float64 // host→device copy bandwidth
	QuantizeGBs float64 // on-GPU dequant/quant-repack throughput
	// ChunkOverheadUS is the fixed per-chunk cost (file seek, allocator,
	// kernel launch) paid by each stage.
	ChunkOverheadUS float64
}

// DefaultResources matches the paper's testbed description ("GB/s SSD",
// PCIe-attached GPUs).
var DefaultResources = Resources{
	DiskGBs: 2.0, PCIeGBs: 16.0, QuantizeGBs: 80.0, ChunkOverheadUS: 150,
}

// Validate checks the resource description.
func (r Resources) Validate() error {
	if r.DiskGBs <= 0 || r.PCIeGBs <= 0 || r.QuantizeGBs <= 0 {
		return fmt.Errorf("loader: bandwidths must be positive: %+v", r)
	}
	if r.ChunkOverheadUS < 0 {
		return fmt.Errorf("loader: negative chunk overhead")
	}
	return nil
}

// Plan is a loading schedule for one model shard.
type Plan struct {
	ShardBytes float64
	ChunkBytes float64
	Chunks     int
	// LoadTime is the end-to-end pipelined loading time in seconds.
	LoadTime float64
	// PeakDRAM is the host memory high-water mark: double-buffered chunks
	// (one being read, one being copied).
	PeakDRAM float64
	// Bottleneck names the limiting resource ("disk", "pcie", "quant").
	Bottleneck string
}

// stageTimes returns per-chunk (read, copy, quant) seconds.
func (r Resources) stageTimes(chunkBytes float64) (read, cp, q float64) {
	oh := r.ChunkOverheadUS * 1e-6
	read = chunkBytes/(r.DiskGBs*1e9) + oh
	cp = chunkBytes/(r.PCIeGBs*1e9) + oh
	q = chunkBytes/(r.QuantizeGBs*1e9) + oh
	return read, cp, q
}

// Load computes the pipelined loading plan for a shard at a granularity.
func Load(r Resources, shardBytes, chunkBytes float64) (Plan, error) {
	if err := r.Validate(); err != nil {
		return Plan{}, err
	}
	if shardBytes <= 0 {
		return Plan{}, fmt.Errorf("loader: shard bytes must be positive, got %g", shardBytes)
	}
	if chunkBytes <= 0 || chunkBytes > shardBytes {
		chunkBytes = shardBytes
	}
	n := int(math.Ceil(shardBytes / chunkBytes))
	read, cp, q := r.stageTimes(chunkBytes)
	// Pick the slowest stage; on exact ties disk wins over pcie over quant,
	// matching the overlap model's priority.
	bottleneck, name := read, "disk"
	if cp > bottleneck {
		bottleneck, name = cp, "pcie"
	}
	if q > bottleneck {
		bottleneck, name = q, "quant"
	}
	total := read + cp + q + float64(n-1)*bottleneck
	return Plan{
		ShardBytes: shardBytes,
		ChunkBytes: chunkBytes,
		Chunks:     n,
		LoadTime:   total,
		PeakDRAM:   2 * chunkBytes,
		Bottleneck: name,
	}, nil
}

// Monolithic loads the whole shard as one chunk: no overlap, host DRAM
// must hold the entire FP16 shard — the baseline the paper's plugin
// replaces.
func Monolithic(r Resources, shardBytes float64) (Plan, error) {
	return Load(r, shardBytes, shardBytes)
}

// RecoveryTime estimates restarting a single failed pipeline stage:
// reload that stage's shard at the given granularity. With module-level
// chunks the failed worker streams back to service without the full-model
// DRAM spike — the §5 recovery claim.
func RecoveryTime(r Resources, stageShardBytes, chunkBytes float64) (float64, error) {
	p, err := Load(r, stageShardBytes, chunkBytes)
	if err != nil {
		return 0, err
	}
	return p.LoadTime, nil
}
