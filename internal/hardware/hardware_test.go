package hardware

import (
	"testing"
)

// totalMemoryBytes sums usable memory across devices.
func totalMemoryBytes(c Cluster) float64 {
	var t float64
	for _, d := range c.Devices {
		t += d.GPU.MemoryBytes()
	}
	return t
}

// heterogeneous reports whether the cluster mixes GPU types.
func heterogeneous(c Cluster) bool {
	for _, d := range c.Devices[1:] {
		if d.GPU.Name != c.Devices[0].GPU.Name {
			return true
		}
	}
	return false
}

func TestCatalogComplete(t *testing.T) {
	for _, name := range []string{"T4", "P100", "V100", "A100-40G", "A800-80G"} {
		g, err := GPUByName(name)
		if err != nil {
			t.Fatalf("GPUByName(%q): %v", name, err)
		}
		for _, b := range Bits {
			if g.ComputeEff[b] <= 0 || g.MemEff[b] <= 0 {
				t.Errorf("%s: missing efficiency for %d-bit", name, b)
			}
		}
		if g.MemoryBytes() <= 0 || g.FLOPS(16) <= 0 || g.Bandwidth(16) <= 0 {
			t.Errorf("%s: nonpositive capability", name)
		}
	}
	if _, err := GPUByName("H100"); err == nil {
		t.Error("expected error for unknown GPU")
	}
}

func TestT4FastINT8VsV100SlowINT8(t *testing.T) {
	// Paper §2.5: "T4 supports fast INT8 due to its tensor core, making the
	// execution time of the 8-bit layer comparable to FP16, while V100's
	// INT8 implementation always incurs longer latency than FP16."
	if T4.ComputeEff[8] < 1.0 {
		t.Errorf("T4 INT8 compute eff %.2f should be >= FP16", T4.ComputeEff[8])
	}
	if V100.ComputeEff[8] >= 1.0 {
		t.Errorf("V100 INT8 compute eff %.2f should be < FP16", V100.ComputeEff[8])
	}
	if P100.ComputeEff[8] >= 1.0 {
		t.Errorf("P100 INT8 compute eff %.2f should be < FP16", P100.ComputeEff[8])
	}
}

func TestSubByteKernelsPayComputeButSaveMemory(t *testing.T) {
	for _, g := range []GPU{T4, P100, V100, A100, A800} {
		for _, b := range []int{3, 4} {
			if g.ComputeEff[b] >= 1.0 {
				t.Errorf("%s: %d-bit compute eff %.2f should pay dequant overhead", g.Name, b, g.ComputeEff[b])
			}
		}
		// Effective bytes moved per weight still shrink with bitwidth:
		// (bits/8)/MemEff must be decreasing.
		prev := 1e18
		for _, b := range []int{16, 8, 4, 3} {
			cost := float64(b) / 8 / g.MemEff[b]
			if cost >= prev {
				t.Errorf("%s: %d-bit weight streaming not cheaper than next precision up", g.Name, b)
			}
			prev = cost
		}
	}
}

func TestTable3Clusters(t *testing.T) {
	wantDevices := map[int]int{1: 1, 2: 1, 3: 4, 4: 4, 5: 6, 6: 4, 7: 8, 8: 6, 9: 4, 10: 4, 11: 4}
	wantHetero := map[int]bool{1: false, 2: false, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true, 9: false, 10: false, 11: false}
	for id := 1; id <= 11; id++ {
		c, err := ClusterByID(id)
		if err != nil {
			t.Fatalf("cluster %d: %v", id, err)
		}
		if c.NumDevices() != wantDevices[id] {
			t.Errorf("cluster %d: %d devices, want %d", id, c.NumDevices(), wantDevices[id])
		}
		if heterogeneous(c) != wantHetero[id] {
			t.Errorf("cluster %d: heterogeneous=%v, want %v", id, heterogeneous(c), wantHetero[id])
		}
	}
	if _, err := ClusterByID(12); err == nil {
		t.Error("expected error for cluster 12")
	}
}

func TestModelFitsClusterScale(t *testing.T) {
	// Table 3 pairs each cluster with a model whose FP16 weights are
	// comparable to total cluster memory — meaning FP16 generally does NOT
	// fit with KV cache, which is what motivates quantization.
	paramsB := map[string]float64{"opt-13b": 13, "opt-30b": 30, "opt-66b": 66, "bloom-176b": 176}
	for id := 1; id <= 11; id++ {
		c, _ := ClusterByID(id)
		weights := paramsB[c.ModelName] * 1e9 * 2 // FP16 bytes
		mem := totalMemoryBytes(c)
		if weights < 0.4*mem || weights > 3.0*mem {
			t.Errorf("cluster %d: model %s weights %.0fGB vs memory %.0fGB out of expected band",
				id, c.ModelName, weights/1e9, mem/1e9)
		}
	}
}

func TestLinkBetween(t *testing.T) {
	c, _ := ClusterByID(3) // 3xT4 (node 0) + 1xV100 (node 1)
	same := c.LinkBetween(c.Devices[0], c.Devices[1])
	cross := c.LinkBetween(c.Devices[0], c.Devices[3])
	if same != NVLink {
		t.Errorf("intra-node link should be NVLink, got %+v", same)
	}
	if cross != Eth800Gbps {
		t.Errorf("inter-node link should be 800Gbps Ethernet, got %+v", cross)
	}
	if NVLink.TransferTime(1e9) >= Eth100Gbps.TransferTime(1e9) {
		t.Error("NVLink should be faster than 100Gbps Ethernet for 1GB")
	}
}

func TestNewCluster(t *testing.T) {
	c, err := NewCluster([]string{"T4", "V100"}, []int{3, 1}, Eth800Gbps, "opt-30b")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDevices() != 4 || !heterogeneous(c) {
		t.Errorf("bad custom cluster: %+v", c)
	}
	if _, err := NewCluster([]string{"T4"}, []int{1, 2}, NVLink, "x"); err == nil {
		t.Error("expected mismatch error")
	}
	const unknown = `hardware: unknown GPU "Z9" (have [A100-40G A800-80G P100 T4 V100])`
	if _, err := NewCluster([]string{"Z9"}, []int{1}, NVLink, "x"); err == nil || err.Error() != unknown {
		t.Errorf("unknown GPU error %v, want %q", err, unknown)
	}
	if _, err := NewCluster([]string{"T4"}, []int{0}, NVLink, "x"); err == nil {
		t.Error("expected nonpositive count error")
	}
}
