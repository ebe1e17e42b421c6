// Package core is the high-level LLM-PQ API: one call to plan a serving
// strategy (phase-aware partition + adaptive quantization + micro-batch
// sizing, paper §4) and one call to serve it (distributed pipeline runtime,
// §3/§5). The cmd/ binaries and examples/ programs are thin wrappers over
// this package; the pieces live in internal/assigner, internal/runtime and
// friends.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/assigner"
	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/runtime"
)

// Request describes one planning problem — the inputs of the paper's
// llmpq-algo entry point.
type Request struct {
	ModelName     string   // e.g. "opt-30b"
	DeviceNames   []string // e.g. {"T4", "V100"}
	DeviceNumbers []int    // e.g. {3, 1}
	// ClusterID selects a Table 3 cluster instead of DeviceNames/Numbers
	// when > 0.
	ClusterID   int
	GlobalBatch int
	PromptLen   int     // --s
	Generate    int     // --n
	Theta       float64 // quality scalar θ
	Group       int     // layer grouping (0/1 = none)
	Method      assigner.Method
	TimeLimit   time.Duration
	// OmegaSeed seeds the synthetic sensitivity table; OmegaFile, when
	// set, loads ω from JSON instead (the paper's --omega_file).
	OmegaSeed int64
	OmegaFile string
	Bits      []int
	// KVBits selects the KV-cache precision (0/16 = FP16, 8 = INT8 KV).
	KVBits int
	// Interconnect for ad-hoc clusters ("nvlink", "eth800", "eth100").
	Interconnect string
	// Parallelism bounds the planner's worker pool (0 = all CPUs). A
	// runtime knob, not part of the planning problem — excluded from
	// strategy files so serial and parallel runs serialize identically.
	Parallelism int `json:"-"`
}

func (r *Request) defaults() {
	if len(r.Bits) == 0 {
		r.Bits = []int{3, 4, 8, 16}
	}
	if r.OmegaSeed == 0 {
		r.OmegaSeed = 42
	}
	if r.GlobalBatch == 0 {
		r.GlobalBatch = 32
	}
	if r.PromptLen == 0 {
		r.PromptLen = 512
	}
	if r.Generate == 0 {
		r.Generate = 100
	}
	if r.Theta == 0 {
		r.Theta = 1
	}
	if r.Interconnect == "" {
		r.Interconnect = "eth800"
	}
}

func (r *Request) link() (hardware.Link, error) {
	switch r.Interconnect {
	case "nvlink":
		return hardware.NVLink, nil
	case "eth800":
		return hardware.Eth800Gbps, nil
	case "eth100":
		return hardware.Eth100Gbps, nil
	default:
		return hardware.Link{}, fmt.Errorf("core: unknown interconnect %q (nvlink|eth800|eth100)", r.Interconnect)
	}
}

// BuildSpec resolves a Request into an assigner.Spec.
func BuildSpec(r Request) (*assigner.Spec, error) {
	r.defaults()
	var cl hardware.Cluster
	var err error
	if r.ClusterID > 0 {
		cl, err = hardware.ClusterByID(r.ClusterID)
		if err != nil {
			return nil, err
		}
		if r.ModelName == "" {
			r.ModelName = cl.ModelName
		}
	} else {
		link, lerr := r.link()
		if lerr != nil {
			return nil, lerr
		}
		cl, err = hardware.NewCluster(r.DeviceNames, r.DeviceNumbers, link, r.ModelName)
		if err != nil {
			return nil, err
		}
	}
	cfg, err := model.ByName(r.ModelName)
	if err != nil {
		return nil, err
	}
	var omega indicator.Omega
	if r.OmegaFile != "" {
		omega, err = LoadOmega(r.OmegaFile)
		if err != nil {
			return nil, err
		}
	} else {
		omega = indicator.Synthetic(cfg, r.Bits, r.OmegaSeed)
	}
	omega, err = omega.Normalize()
	if err != nil {
		return nil, err
	}
	group := r.Group
	if group <= 1 {
		group = 1
	}
	return &assigner.Spec{
		Cfg:         cfg,
		Cluster:     cl,
		Work:        assigner.Workload{GlobalBatch: r.GlobalBatch, Prompt: r.PromptLen, Generate: r.Generate},
		Bits:        r.Bits,
		Omega:       assigner.GroupOmega(omega, group),
		Theta:       r.Theta,
		Group:       group,
		Method:      r.Method,
		TimeLimit:   r.TimeLimit,
		KVBits:      r.KVBits,
		Parallelism: r.Parallelism,
	}, nil
}

// Plan runs the LLM-PQ assigner on a request.
func Plan(r Request) (*assigner.Spec, *assigner.Result, error) {
	spec, err := BuildSpec(r)
	if err != nil {
		return nil, nil, err
	}
	res, err := assigner.Optimize(spec, nil)
	if err != nil {
		return nil, nil, err
	}
	return spec, res, nil
}

// Serve executes a plan on the simulated distributed runtime.
func Serve(spec *assigner.Spec, plan *assigner.Plan) (runtime.Stats, error) {
	eng, err := runtime.NewEngine(spec, plan, nil)
	if err != nil {
		return runtime.Stats{}, err
	}
	return eng.Run()
}

// PredictPPL scores a plan's quality on the calibrated scorer.
func PredictPPL(spec *assigner.Spec, plan *assigner.Plan) (float64, error) {
	omega := indicator.Synthetic(spec.Cfg, []int{3, 4, 8, 16}, 42)
	scorer, err := quality.NewScorer(spec.Cfg.Name, omega)
	if err != nil {
		return 0, err
	}
	return scorer.PPL(plan.LayerBits(spec.Cfg.Layers))
}

// Strategy is the serialized execution plan the llmpq-algo binary emits and
// llmpq-dist consumes (the paper's strategy file).
type Strategy struct {
	Request Request        `json:"request"`
	Plan    *assigner.Plan `json:"plan"`
}

// SaveStrategy writes a strategy file.
func SaveStrategy(path string, s Strategy) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadStrategy reads a strategy file.
func LoadStrategy(path string) (Strategy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Strategy{}, err
	}
	var s Strategy
	if err := json.Unmarshal(data, &s); err != nil {
		return Strategy{}, fmt.Errorf("core: parse %s: %w", path, err)
	}
	if s.Plan == nil {
		return Strategy{}, fmt.Errorf("core: strategy %s has no plan", path)
	}
	return s, nil
}

// omegaFile is the JSON schema of --omega_file.
type omegaFile struct {
	Bits   []int       `json:"bits"`
	Values [][]float64 `json:"values"`
}

// LoadOmega reads a sensitivity table from JSON.
func LoadOmega(path string) (indicator.Omega, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return indicator.Omega{}, err
	}
	var f omegaFile
	if err := json.Unmarshal(data, &f); err != nil {
		return indicator.Omega{}, fmt.Errorf("core: parse omega %s: %w", path, err)
	}
	if len(f.Bits) == 0 || len(f.Values) == 0 {
		return indicator.Omega{}, fmt.Errorf("core: omega file %s empty", path)
	}
	for i, row := range f.Values {
		if len(row) != len(f.Bits) {
			return indicator.Omega{}, fmt.Errorf("core: omega row %d has %d entries for %d bits", i, len(row), len(f.Bits))
		}
	}
	return indicator.Omega{Bits: f.Bits, Values: f.Values}, nil
}

// SaveOmega writes a sensitivity table to JSON.
func SaveOmega(path string, o indicator.Omega) error {
	data, err := json.MarshalIndent(omegaFile{Bits: o.Bits, Values: o.Values}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
