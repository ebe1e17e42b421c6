package workload

import (
	"testing"
	"testing/quick"
)

func TestShareGPTDistributionShape(t *testing.T) {
	// §2.1: prompt lengths vary substantially, with a large share of short
	// (<128) prompts and a heavy tail.
	lengths := ShareGPTLengths(10000, 2048, 1)
	st, err := Summarize(lengths)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShortShare < 0.35 || st.ShortShare > 0.8 {
		t.Errorf("short-prompt share %.2f outside the ShareGPT-like band", st.ShortShare)
	}
	if st.P99 < 4*st.P50 {
		t.Errorf("tail too light: p50=%d p99=%d", st.P50, st.P99)
	}
	if st.P90 <= st.P50 || st.P99 <= st.P90 {
		t.Errorf("quantiles not ordered: %+v", st)
	}
	for _, l := range lengths {
		if l < 1 || l > 2048 {
			t.Fatalf("length %d out of range", l)
		}
	}
}

func TestShareGPTDeterministic(t *testing.T) {
	a := ShareGPTLengths(100, 2048, 3)
	b := ShareGPTLengths(100, 2048, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not reproducible")
		}
	}
}

func TestSummarizeProperties(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("expected empty error")
	}
	err := quick.Check(func(seed int64) bool {
		ls := ShareGPTLengths(200, 1024, seed)
		st, err := Summarize(ls)
		if err != nil {
			return false
		}
		return st.Mean >= 1 && st.P50 <= st.P90 && st.P90 <= st.P99
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}
