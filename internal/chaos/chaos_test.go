package chaos

import (
	"strings"
	"testing"
)

func TestFaultValidate(t *testing.T) {
	cases := []struct {
		name    string
		f       Fault
		horizon float64
		wantErr string
	}{
		{"valid transient crash", Fault{Kind: KindCrash, Stage: 1, AtSec: 1, RecoverySec: 0.5}, 10, ""},
		{"valid permanent crash", Fault{Kind: KindCrash, Stage: 0, AtSec: 1, Permanent: true}, 10, ""},
		{"valid healing crash", Fault{Kind: KindCrash, Stage: 0, AtSec: 1, Permanent: true, RecoverAfterSec: 2, Flaps: 1}, 10, ""},
		{"permanent with downtime", Fault{Kind: KindCrash, Stage: 0, AtSec: 1, Permanent: true, RecoverySec: 0.5}, 10, "use RecoverAfterSec"},
		{"negative heal schedule", Fault{Kind: KindCrash, Stage: 0, AtSec: 1, Permanent: true, RecoverAfterSec: -1}, 10, "RecoverAfterSec"},
		{"heal on transient crash", Fault{Kind: KindCrash, Stage: 0, AtSec: 1, RecoverAfterSec: 2}, 10, "only applies to permanent"},
		{"negative flaps", Fault{Kind: KindCrash, Stage: 0, AtSec: 1, Permanent: true, RecoverAfterSec: 2, Flaps: -1}, 10, "flap count"},
		{"flaps without heal", Fault{Kind: KindCrash, Stage: 0, AtSec: 1, Permanent: true, Flaps: 1}, 10, "without a RecoverAfterSec"},
		{"heal on non-crash kind", Fault{Kind: KindStraggler, Stage: 0, AtSec: 1, Factor: 2, DurationSec: 1, RecoverAfterSec: 2}, 10, "crash-only"},
		{"stage out of range", Fault{Kind: KindCrash, Stage: 3, AtSec: 1}, 10, "out of [0,3)"},
		{"negative stage", Fault{Kind: KindStraggler, Stage: -1, AtSec: 1, Factor: 2, DurationSec: 1}, 10, "out of [0,3)"},
		{"negative at", Fault{Kind: KindCrash, Stage: 0, AtSec: -1}, 10, "negative time"},
		{"beyond horizon", Fault{Kind: KindCrash, Stage: 0, AtSec: 11}, 10, "beyond the"},
		{"negative recovery", Fault{Kind: KindCrash, Stage: 0, AtSec: 1, RecoverySec: -0.1}, 10, "recovery"},
		{"straggler factor below one", Fault{Kind: KindStraggler, Stage: 0, AtSec: 1, Factor: 0.5, DurationSec: 1}, 10, ">= 1"},
		{"straggler zero duration", Fault{Kind: KindStraggler, Stage: 0, AtSec: 1, Factor: 2}, 10, "duration"},
		{"slowlink permanent", Fault{Kind: KindSlowLink, Stage: 0, AtSec: 1, Factor: 2, DurationSec: 1, Permanent: true}, 10, "cannot be permanent"},
		{"kvalloc zero prob", Fault{Kind: KindKVAlloc, AtSec: 1, Factor: 0, DurationSec: 1}, 10, "(0,1]"},
		{"kvalloc prob above one", Fault{Kind: KindKVAlloc, AtSec: 1, Factor: 1.5, DurationSec: 1}, 10, "(0,1]"},
		{"kvalloc ignores stage", Fault{Kind: KindKVAlloc, Stage: 99, AtSec: 1, Factor: 0.5, DurationSec: 1}, 10, ""},
		{"unknown kind", Fault{Kind: Kind(42), Stage: 0, AtSec: 1}, 10, "unknown fault kind"},
		{"no horizon disables bound", Fault{Kind: KindCrash, Stage: 0, AtSec: 1e6}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate(3, tc.horizon)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestScheduleValidate(t *testing.T) {
	var nilSched *Schedule
	if err := nilSched.Validate(2); err != nil {
		t.Fatalf("nil schedule must validate: %v", err)
	}
	perm := Fault{Kind: KindCrash, Stage: 0, AtSec: 1, Permanent: true}
	s := &Schedule{Faults: []Fault{perm, {Kind: KindCrash, Stage: 1, AtSec: 2, Permanent: true}}}
	if err := s.Validate(2); err == nil || !strings.Contains(err.Error(), "permanent") {
		t.Fatalf("two permanent losses must be rejected, got %v", err)
	}
	if err := (&Schedule{HorizonSec: -1}).Validate(2); err == nil {
		t.Fatal("negative horizon must be rejected")
	}
	if err := (&Schedule{Faults: []Fault{perm}}).Validate(0); err == nil {
		t.Fatal("zero stages must be rejected")
	}
	got, ok := (&Schedule{Faults: []Fault{{Kind: KindCrash, Stage: 1, AtSec: 2}, perm}}).Permanent()
	if !ok || !got.Permanent || got.Stage != 0 {
		t.Fatalf("Permanent() = %+v, %v", got, ok)
	}
	if _, ok := nilSched.Permanent(); ok {
		t.Fatal("nil schedule has no permanent fault")
	}
}

func TestMultipliersAndKVProb(t *testing.T) {
	s := &Schedule{Faults: []Fault{
		{Kind: KindStraggler, Stage: 0, AtSec: 1, Factor: 2, DurationSec: 2},
		{Kind: KindStraggler, Stage: 0, AtSec: 2, Factor: 3, DurationSec: 2}, // overlaps [2,3)
		{Kind: KindSlowLink, Stage: 1, AtSec: 1, Factor: 4, DurationSec: 1},
		{Kind: KindKVAlloc, AtSec: 0, Factor: 0.5, DurationSec: 10},
		{Kind: KindKVAlloc, AtSec: 0, Factor: 0.5, DurationSec: 10},
	}}
	if got := s.ComputeMult(0, 0.5); got != 1 {
		t.Errorf("before window: mult %g, want 1", got)
	}
	if got := s.ComputeMult(0, 1.5); got != 2 {
		t.Errorf("single straggler: mult %g, want 2", got)
	}
	if got := s.ComputeMult(0, 2.5); got != 6 {
		t.Errorf("overlapping stragglers must compound: mult %g, want 6", got)
	}
	if got := s.ComputeMult(1, 1.5); got != 1 {
		t.Errorf("other stage unaffected: mult %g, want 1", got)
	}
	if got := s.CommMult(1, 1.5); got != 4 {
		t.Errorf("slow link: mult %g, want 4", got)
	}
	if got := s.CommMult(1, 2.5); got != 1 {
		t.Errorf("window closed: mult %g, want 1", got)
	}
	// Two independent 0.5 windows: 1 − 0.5·0.5 = 0.75.
	if got := s.KVFailProb(5); got != 0.75 {
		t.Errorf("combined KV fail prob %g, want 0.75", got)
	}
	if got := s.KVFailProb(20); got != 0 {
		t.Errorf("outside windows: prob %g, want 0", got)
	}
	if !s.HasKVFaults() {
		t.Error("HasKVFaults must be true")
	}
	var nilSched *Schedule
	if nilSched.ComputeMult(0, 0) != 1 || nilSched.CommMult(0, 0) != 1 || nilSched.KVFailProb(0) != 0 || nilSched.HasKVFaults() {
		t.Error("nil schedule must be a no-op")
	}
}

func TestProfilesDeterministic(t *testing.T) {
	for _, name := range Profiles() {
		t.Run(name, func(t *testing.T) {
			a, err := New(name, 42, 4, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(name, 42, 4, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Faults) != len(b.Faults) {
				t.Fatalf("fault counts differ: %d vs %d", len(a.Faults), len(b.Faults))
			}
			for i := range a.Faults {
				if a.Faults[i] != b.Faults[i] {
					t.Errorf("fault %d differs: %+v vs %+v", i, a.Faults[i], b.Faults[i])
				}
			}
			// A different seed must (for these profiles) move or resize at
			// least one fault.
			c, err := New(name, 43, 4, 10)
			if err != nil {
				t.Fatal(err)
			}
			same := true
			for i := range a.Faults {
				if a.Faults[i] != c.Faults[i] {
					same = false
				}
			}
			if same {
				t.Error("seed 42 and 43 generated identical schedules")
			}
			if err := a.Validate(4); err != nil {
				t.Errorf("generated schedule invalid: %v", err)
			}
		})
	}
}

// TestHealProfileShapes pins the heal-specific invariants the failover
// controller and the dist rejoin path rely on.
func TestHealProfileShapes(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s, err := New(ProfileFlap, seed, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := s.Permanent()
		if !ok {
			t.Fatalf("seed %d: flap profile has no permanent loss", seed)
		}
		if f.RecoverAfterSec <= 0 {
			t.Errorf("seed %d: flap loss never heals (%+v)", seed, f)
		}
		if f.Flaps < 0 || f.Flaps > 1 {
			t.Errorf("seed %d: flap count %d outside [0,1] — would trip default quarantine", seed, f.Flaps)
		}
		// Loss + heal + one flap cycle must land inside the horizon so
		// the restore happens mid-run, not after drain.
		if end := f.AtSec + f.RecoverAfterSec*float64(1+f.Flaps); end >= s.HorizonSec {
			t.Errorf("seed %d: heal at %.3fs lands past the %.1fs horizon", seed, end, s.HorizonSec)
		}

		ph, err := New(ProfilePartitionHeal, seed, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(ph.Faults) != 1 || ph.Faults[0].Kind != KindPartition || ph.Faults[0].Conn != -1 {
			t.Fatalf("seed %d: partition-heal shape %+v", seed, ph.Faults)
		}
		if ph.Faults[0].DurationSec < 0.3*ph.HorizonSec {
			t.Errorf("seed %d: partition window %.3fs too short to expire leases", seed, ph.Faults[0].DurationSec)
		}
	}
}

func TestProfileErrors(t *testing.T) {
	if _, err := New("no-such-profile", 1, 2, 10); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Fatalf("unknown profile error %v", err)
	}
	if _, err := New(ProfileCrash, 1, 0, 10); err == nil {
		t.Fatal("zero stages must fail")
	}
	if _, err := New(ProfileCrash, 1, 2, 0); err == nil {
		t.Fatal("zero horizon must fail")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindCrash: "crash", KindStraggler: "straggler", KindSlowLink: "slowlink", KindKVAlloc: "kvalloc", Kind(9): "Kind(9)"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d → %q, want %q", int(k), k.String(), s)
		}
	}
}
