// Package hardware models the heterogeneous GPU fleet of the paper's
// production cluster: per-device compute/memory characteristics, the
// efficiency of each quantized kernel on each architecture, interconnects,
// and the eleven evaluation clusters of Table 3.
//
// This is the substitution for real CUDA hardware (DESIGN.md §3): the
// planner consumes relative per-device, per-precision phase latencies and
// memory capacities, which this analytic catalog supplies. Published
// datasheet numbers anchor absolute scale; kernel-efficiency factors are
// calibrated to the qualitative facts the paper reports (T4 has fast INT8
// tensor cores, V100/P100 INT8 is slower than FP16, weight-only 3/4-bit
// kernels pay dequantization overhead on compute but save memory traffic).
package hardware

import (
	"fmt"
	"sort"
)

// GPU describes one device type.
type GPU struct {
	Name         string
	MemoryGB     float64 // usable HBM capacity
	FP16TFLOPS   float64 // peak dense FP16 throughput
	BandwidthGBs float64 // HBM bandwidth
	// Compute efficiency multiplier of quantized kernels relative to the
	// FP16 peak, keyed by bitwidth. <1 means the kernel sustains less
	// throughput than FP16 (dequant overhead, no tensor-core path);
	// >1 means a genuinely faster path (INT8 tensor cores).
	ComputeEff map[int]float64
	// MemEff is the efficiency of streaming quantized weights, relative to
	// peak bandwidth, keyed by bitwidth. Packing/unpacking of sub-byte
	// weights wastes some bandwidth.
	MemEff map[int]float64
	// LaunchOverheadUS is the fixed per-layer kernel launch + framework
	// overhead in microseconds.
	LaunchOverheadUS float64
	// HourlyUSD is the on-demand price used for cost-efficiency metrics —
	// the paper's motivation is that harvesting idle low-calibre GPUs
	// "substantially reduces the serving cost".
	HourlyUSD float64
}

// Bits are the candidate precisions of the paper: BITs = {3, 4, 8, 16}.
var Bits = []int{3, 4, 8, 16}

// MemoryBytes returns usable device memory in bytes.
func (g GPU) MemoryBytes() float64 { return g.MemoryGB * 1e9 }

// FLOPS returns sustained FLOP/s at the given weight bitwidth.
func (g GPU) FLOPS(bits int) float64 {
	return g.FP16TFLOPS * 1e12 * g.ComputeEff[bits]
}

// Bandwidth returns sustained bytes/s when streaming weights of the given
// bitwidth.
func (g GPU) Bandwidth(bits int) float64 {
	return g.BandwidthGBs * 1e9 * g.MemEff[bits]
}

// Catalog of the five device types used across the paper's clusters.
// FP16/bandwidth/memory from vendor datasheets; efficiency factors
// calibrated per paper §2.4–2.5 and Fig 3/5.
var (
	T4 = GPU{
		Name: "T4", MemoryGB: 15.0, FP16TFLOPS: 65, BandwidthGBs: 300,
		// Turing tensor cores: INT8 is a fast path (≈2x FP16 peak);
		// 3/4-bit weight-only kernels dequantize on the fly.
		ComputeEff:       map[int]float64{3: 0.52, 4: 0.60, 8: 1.55, 16: 1.0},
		MemEff:           map[int]float64{3: 0.72, 4: 0.80, 8: 0.92, 16: 1.0},
		LaunchOverheadUS: 18,
		HourlyUSD:        0.53,
	}
	P100 = GPU{
		Name: "P100", MemoryGB: 11.0, FP16TFLOPS: 18.7, BandwidthGBs: 732,
		// Pascal: no tensor cores at all; INT8 via dp4a is slower than the
		// native FP16 path, sub-byte kernels worse still.
		ComputeEff:       map[int]float64{3: 0.38, 4: 0.45, 8: 0.70, 16: 1.0},
		MemEff:           map[int]float64{3: 0.66, 4: 0.75, 8: 0.90, 16: 1.0},
		LaunchOverheadUS: 22,
		HourlyUSD:        0.73,
	}
	V100 = GPU{
		Name: "V100", MemoryGB: 30.0, FP16TFLOPS: 112, BandwidthGBs: 900,
		// Volta tensor cores are FP16-only: INT8 always loses to FP16
		// (paper §2.5), weight-only kernels pay dequant.
		ComputeEff:       map[int]float64{3: 0.42, 4: 0.50, 8: 0.78, 16: 1.0},
		MemEff:           map[int]float64{3: 0.70, 4: 0.78, 8: 0.91, 16: 1.0},
		LaunchOverheadUS: 15,
		HourlyUSD:        2.48,
	}
	A100 = GPU{
		Name: "A100-40G", MemoryGB: 39.0, FP16TFLOPS: 312, BandwidthGBs: 1555,
		// Ampere: INT8 tensor cores ≈2x FP16 peak, but the bitsandbytes
		// decomposition kernel the paper uses erodes that to ≈parity.
		ComputeEff:       map[int]float64{3: 0.48, 4: 0.55, 8: 1.05, 16: 1.0},
		MemEff:           map[int]float64{3: 0.72, 4: 0.80, 8: 0.93, 16: 1.0},
		LaunchOverheadUS: 12,
		HourlyUSD:        3.67,
	}
	A800 = GPU{
		Name: "A800-80G", MemoryGB: 79.0, FP16TFLOPS: 312, BandwidthGBs: 2039,
		ComputeEff:       map[int]float64{3: 0.48, 4: 0.55, 8: 1.05, 16: 1.0},
		MemEff:           map[int]float64{3: 0.72, 4: 0.80, 8: 0.93, 16: 1.0},
		LaunchOverheadUS: 12,
		HourlyUSD:        4.10,
	}
)

var gpuCatalog = map[string]GPU{
	"T4": T4, "P100": P100, "V100": V100, "A100-40G": A100, "A800-80G": A800,
}

// GPUByName looks up a device type.
func GPUByName(name string) (GPU, error) {
	g, ok := gpuCatalog[name]
	if !ok {
		return GPU{}, fmt.Errorf("hardware: unknown GPU %q (have %v)", name, GPUNames())
	}
	return g, nil
}

// GPUNames lists catalog device names, sorted.
func GPUNames() []string {
	names := make([]string, 0, len(gpuCatalog))
	for n := range gpuCatalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Link describes the interconnect between two adjacent pipeline stages.
type Link struct {
	BandwidthGBs float64 // unidirectional bandwidth
	LatencyUS    float64 // per-message latency
}

// Standard interconnects in the paper's clusters.
var (
	NVLink     = Link{BandwidthGBs: 150, LatencyUS: 5}
	Eth800Gbps = Link{BandwidthGBs: 100, LatencyUS: 20}
	Eth100Gbps = Link{BandwidthGBs: 12.5, LatencyUS: 30}
)

// TransferTime returns seconds to move `bytes` across the link.
func (l Link) TransferTime(bytes float64) float64 {
	return l.LatencyUS*1e-6 + bytes/(l.BandwidthGBs*1e9)
}
