package quant

// Fuzz lanes for the quantizer: every input must round-trip within the
// Theorem 1 error envelope (deterministic rounding error ∈ [−s/2, s/2],
// stochastic ∈ (−s, s)) and the group-wise packing must keep its
// (col, rowGroup) index layout consistent. `make fuzz-smoke` (wired into
// scripts/verify.sh) runs each target for 15 s.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// fuzzFloats derives up to maxN finite floats in [−1e6, 1e6] from raw
// fuzz bytes.
func fuzzFloats(data []byte, maxN int) []float64 {
	n := len(data) / 8
	if n > maxN {
		n = maxN
	}
	w := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		u := binary.LittleEndian.Uint64(data[i*8:])
		frac := float64(u>>11) / (1 << 53) // [0,1)
		w = append(w, (frac*2-1)*1e6)
	}
	return w
}

func clampBits(bits int) int {
	if bits < 0 {
		bits = -bits
	}
	return 2 + bits%15 // [2,16]
}

func FuzzQuantDequantRoundTrip(f *testing.F) {
	f.Add(int64(1), 4, []byte("seed-corpus-entry-with-16+b"))
	f.Add(int64(7), 3, make([]byte, 64))
	f.Add(int64(42), 16, []byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, seed int64, bits int, data []byte) {
		bits = clampBits(bits)
		w := fuzzFloats(data, 256)
		if len(w) == 0 {
			return
		}
		for _, rounding := range []Rounding{Deterministic, Stochastic} {
			rng := rand.New(rand.NewSource(seed))
			qt, err := Quantize(w, len(w), 1, bits, rounding, rng)
			if err != nil {
				t.Fatalf("Quantize(%s): %v", rounding, err)
			}
			maxLevel := int32(Levels(bits) - 1)
			for i, q := range qt.Q {
				if q < 0 || q > maxLevel {
					t.Fatalf("%s: level %d at %d outside [0,%d]", rounding, q, i, maxLevel)
				}
			}
			// Theorem 1 envelope: deterministic error ≤ s/2, stochastic < s,
			// with a relative slack for float evaluation of (v−min)/s.
			bound := qt.Scale / 2
			if rounding == Stochastic {
				bound = qt.Scale
			}
			bound += 1e-9*qt.Scale + 1e-9
			deq := qt.Dequantize()
			for i := range w {
				if e := math.Abs(deq[i] - w[i]); e > bound {
					t.Fatalf("%s bits=%d: element %d error %g exceeds Theorem-1 bound %g (scale %g)",
						rounding, bits, i, e, bound, qt.Scale)
				}
			}
		}
		// Determinism: the same input quantizes identically twice.
		a, err := RoundTrip(w, len(w), 1, bits, Deterministic, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RoundTrip(w, len(w), 1, bits, Deterministic, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("deterministic round-trip differs at %d: %g vs %g", i, a[i], b[i])
			}
		}
	})
}

func FuzzGroupwisePack(f *testing.F) {
	f.Add(4, 3, byte(2), make([]byte, 96))
	f.Add(16, 1, byte(1), []byte("groupwise-pack-corpus-seed-entry"))
	f.Add(8, 7, byte(0), make([]byte, 200))
	f.Fuzz(func(t *testing.T, bits, groupSize int, schemeByte byte, data []byte) {
		bits = clampBits(bits)
		scheme := Scheme(int(schemeByte) % 3)
		w := fuzzFloats(data, 240)
		if len(w) < 2 {
			return
		}
		cols := 1 + int(schemeByte>>2)%4
		rows := len(w) / cols
		if rows == 0 {
			return
		}
		w = w[:rows*cols]
		if groupSize < 0 {
			groupSize = -groupSize
		}
		groupSize = 1 + groupSize%(rows+2) // exercise size > rows too
		qt, err := QuantizeGrouped(w, rows, cols, bits, scheme, groupSize, Deterministic, nil)
		if err != nil {
			t.Fatalf("QuantizeGrouped: %v", err)
		}
		if len(qt.Q) != rows*cols {
			t.Fatalf("packed %d levels for %d weights", len(qt.Q), rows*cols)
		}
		wantGroups := cols * qt.groupsPerCol()
		if scheme == PerTensor {
			wantGroups = 1
		}
		if len(qt.Scales) != wantGroups || len(qt.Zeros) != wantGroups {
			t.Fatalf("%v: %d scales / %d zeros for %d groups", scheme, len(qt.Scales), len(qt.Zeros), wantGroups)
		}
		maxLevel := int32(Levels(bits) - 1)
		deq := qt.Dequantize()
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				i := r*cols + c
				if qt.Q[i] < 0 || qt.Q[i] > maxLevel {
					t.Fatalf("level %d outside [0,%d]", qt.Q[i], maxLevel)
				}
				g := 0
				if scheme != PerTensor {
					g = qt.groupIndex(r, c)
				}
				s := qt.Scales[g]
				if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
					t.Fatalf("degenerate scale %g in group %d", s, g)
				}
				bound := s/2 + 1e-9*s + 1e-9
				if e := math.Abs(deq[i] - w[i]); e > bound {
					t.Fatalf("%v bits=%d group=%d: error %g exceeds s/2 bound %g", scheme, bits, g, e, bound)
				}
			}
		}
		// Per-channel must be exactly group-wise with one group per column.
		if scheme == PerChannel {
			gw, err := QuantizeGrouped(w, rows, cols, bits, GroupWise, rows, Deterministic, nil)
			if err != nil {
				t.Fatalf("GroupWise(rows): %v", err)
			}
			for i := range qt.Q {
				if qt.Q[i] != gw.Q[i] {
					t.Fatalf("per-channel and group-size=rows packs differ at %d", i)
				}
			}
		}
	})
}
