package assigner

import (
	"math/rand"
	"testing"
)

// CheckTransferStarts and CheckDeltaWalk let the external tests, which can
// import the experiments package's specs, run the in-package transfer
// checks on them.
func CheckTransferStarts(t *testing.T, s *Spec) { checkTransferStarts(t, s) }

func CheckDeltaWalk(t *testing.T, s *Spec, seed int64, plans int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, mb := range s.prefillCandidates() {
		tb, err := BuildTables(s, ProfilerTimer{}, mb)
		if err != nil {
			t.Fatal(err)
		}
		checkDeltaWalk(t, tb, rng, plans)
	}
}

// TinySpec, OneDeviceSpec, SubsetOmega and RandomPlan let the external
// Evaluate fixture price the in-package test instances.
var (
	TinySpec      = tinySpec
	OneDeviceSpec = oneDeviceSpec
	SubsetOmega   = subsetOmega
	RandomPlan    = randomPlan
)

// PrefillCandidates returns the prefill micro-batch sizes Optimize tries.
func PrefillCandidates(s *Spec) []int { return s.prefillCandidates() }

// CheckEpsSkip holds the skipping ε scan to the oracle's full one on s
// (see checkEpsSkip) and returns the DP cells the skips saved.
func CheckEpsSkip(t *testing.T, s *Spec) float64 {
	t.Helper()
	return checkEpsSkip(t, s, nil)
}
