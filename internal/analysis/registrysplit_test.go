package analysis

import "testing"

func TestRegistrySplit(t *testing.T) {
	runFixture(t, RegistrySplit, "registrysplit", "repro/fixture/internal/obs")
}

func TestManifestMetricRoles(t *testing.T) {
	m := DefaultManifest()
	cases := []struct {
		name string
		want Role
	}{
		{"llmpq_engine_steps_total", RoleSim},
		{"llmpq_solver_runs_total", RoleSim},
		{"llmpq_dist_heartbeats_total", RoleCtrl},
		{"llmpq_pipeline_stage_seconds", RoleCtrl},
		// The HTTP front door's wall-clock families are ctrl; the online
		// simulation it embeds stays sim.
		{"llmpq_serve_http_requests_total", RoleCtrl},
		{"llmpq_online_completed_total", RoleSim},
		// Exact sim names override the llmpq_dist_* ctrl wildcard.
		{"llmpq_dist_workers", RoleSim},
		{"llmpq_dist_stage_calls_total", RoleSim},
		{"llmpq_dist_injected_conn_drops_total", RoleSim},
		// The coordinator journal and reattach families are wall-clock
		// control-plane state.
		{"llmpq_journal_appends_total", RoleCtrl},
		{"llmpq_journal_append_seconds", RoleCtrl},
		{"llmpq_journal_sync_seconds", RoleCtrl},
		{"llmpq_journal_replayed_records", RoleCtrl},
		{"llmpq_dist_reattach_total", RoleCtrl},
		// The engine's wall-clock wait on a stage batch falls under the
		// llmpq_dist_* ctrl wildcard.
		{"llmpq_dist_stage_wait_seconds", RoleCtrl},
		{"unrelated_family", RoleUnknown},
	}
	for _, c := range cases {
		if got := m.MetricRole(c.name); got != c.want {
			t.Errorf("MetricRole(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestManifestPackageRoles(t *testing.T) {
	m := DefaultManifest()
	cases := []struct {
		path string
		want Role
	}{
		{"repro/internal/assigner", RoleSim},
		{"repro/internal/assigner/sub", RoleSim},
		{"repro/internal/dist", RoleCtrl},
		{"repro/internal/journal", RoleCtrl},
		{"repro/internal/serve", RoleCtrl},
		{"repro/cmd/llmpq-vet", RoleCtrl},
		{"repro/internal/core/floats", RoleUnknown},
		// Prefix matching is per path segment, not per byte.
		{"repro/internal/distother", RoleUnknown},
	}
	for _, c := range cases {
		if got := m.PackageRole(c.path); got != c.want {
			t.Errorf("PackageRole(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
