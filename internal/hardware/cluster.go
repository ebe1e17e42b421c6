package hardware

import "fmt"

// Device is one physical GPU instance inside a cluster, with its node
// placement (GPUs on the same node talk over NVLink; nodes talk over
// Ethernet).
type Device struct {
	ID   int
	GPU  GPU
	Node int
}

// Cluster is a set of devices plus the inter-node link type.
type Cluster struct {
	Name      string
	Devices   []Device
	InterNode Link
	// ModelName is the model Table 3 assigns to this cluster.
	ModelName string
}

// NumDevices returns the device count.
func (c Cluster) NumDevices() int { return len(c.Devices) }

// HourlyUSD sums the cluster's on-demand price.
func (c Cluster) HourlyUSD() float64 {
	var t float64
	for _, d := range c.Devices {
		t += d.GPU.HourlyUSD
	}
	return t
}

// CostPerMTok converts a measured throughput (generated tokens/second) to
// dollars per million generated tokens on this cluster — the serving-cost
// metric behind the paper's motivation.
func (c Cluster) CostPerMTok(tokensPerSec float64) float64 {
	if tokensPerSec <= 0 {
		return 0
	}
	perHour := tokensPerSec * 3600
	return c.HourlyUSD() / perHour * 1e6
}

// LinkBetween returns the link connecting two devices: NVLink within a
// node, the cluster's inter-node Ethernet across nodes.
func (c Cluster) LinkBetween(a, b Device) Link {
	if a.Node == b.Node {
		return NVLink
	}
	return c.InterNode
}

// mk builds a cluster from (gpu, count) pairs, assigning one node per GPU
// type as in the paper ("GPUs of the same type are located on the same
// node, intra-connected with NV-LINK").
func mk(name, modelName string, inter Link, groups ...struct {
	GPU   GPU
	Count int
}) Cluster {
	c := Cluster{Name: name, InterNode: inter, ModelName: modelName}
	id := 0
	for node, g := range groups {
		for i := 0; i < g.Count; i++ {
			c.Devices = append(c.Devices, Device{ID: id, GPU: g.GPU, Node: node})
			id++
		}
	}
	return c
}

func grp(g GPU, n int) struct {
	GPU   GPU
	Count int
} {
	return struct {
		GPU   GPU
		Count int
	}{g, n}
}

// Clusters reproduces Table 3. Index 1..11 (0 unused).
var Clusters = map[int]Cluster{
	1:  mk("cluster-1", "opt-13b", NVLink, grp(V100, 1)),
	2:  mk("cluster-2", "opt-13b", NVLink, grp(A100, 1)),
	3:  mk("cluster-3", "opt-30b", Eth800Gbps, grp(T4, 3), grp(V100, 1)),
	4:  mk("cluster-4", "opt-30b", Eth100Gbps, grp(P100, 3), grp(V100, 1)),
	5:  mk("cluster-5", "opt-66b", Eth800Gbps, grp(T4, 4), grp(V100, 2)),
	6:  mk("cluster-6", "opt-66b", Eth100Gbps, grp(V100, 2), grp(A100, 2)),
	7:  mk("cluster-7", "bloom-176b", Eth100Gbps, grp(V100, 4), grp(A100, 4)),
	8:  mk("cluster-8", "bloom-176b", Eth800Gbps, grp(V100, 4), grp(A800, 2)),
	9:  mk("cluster-9", "opt-30b", NVLink, grp(T4, 4)),
	10: mk("cluster-10", "opt-66b", NVLink, grp(V100, 4)),
	11: mk("cluster-11", "bloom-176b", Eth800Gbps, grp(A800, 4)),
}

// ClusterByID returns one of the Table 3 clusters.
func ClusterByID(id int) (Cluster, error) {
	c, ok := Clusters[id]
	if !ok {
		return Cluster{}, fmt.Errorf("hardware: unknown cluster %d (have 1..11)", id)
	}
	return c, nil
}

// NewCluster assembles an ad-hoc cluster from device type names and counts,
// mirroring the paper's CLI (--device_names, --device_numbers). Each device
// type occupies its own node.
func NewCluster(names []string, counts []int, inter Link, modelName string) (Cluster, error) {
	if len(names) != len(counts) {
		return Cluster{}, fmt.Errorf("hardware: %d device names but %d counts", len(names), len(counts))
	}
	c := Cluster{Name: "custom", InterNode: inter, ModelName: modelName}
	id := 0
	for node, n := range names {
		g, err := GPUByName(n)
		if err != nil {
			return Cluster{}, err
		}
		if counts[node] <= 0 {
			return Cluster{}, fmt.Errorf("hardware: device count for %s must be positive, got %d", n, counts[node])
		}
		for i := 0; i < counts[node]; i++ {
			c.Devices = append(c.Devices, Device{ID: id, GPU: g, Node: node})
			id++
		}
	}
	return c, nil
}
