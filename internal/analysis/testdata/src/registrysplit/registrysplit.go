// Package obsfix exercises the registrysplit analyzer. It is loaded
// under a path ending internal/obs so its local Registry type stands in
// for the real one (fixtures cannot import module packages).
package obsfix

// Registry mirrors the repro/internal/obs API surface the analyzer
// keys on: the type name, package-path suffix, and method names.
type Registry struct{ names []string }

func (r *Registry) Counter(name string) *Counter {
	r.names = append(r.names, name)
	return &Counter{}
}

func (r *Registry) Gauge(name string) *Counter     { return &Counter{} }
func (r *Registry) Histogram(name string) *Counter { return &Counter{} }

// Counter is a stub metric.
type Counter struct{}

func (c *Counter) Inc() {}

// Obs is the deterministic sim registry; CtrlObs the wall-clock one.
var Obs = &Registry{}
var CtrlObs = &Registry{}

const replansFamily = "llmpq_failover_replans_total"

func direct() {
	Obs.Counter("llmpq_engine_steps_total").Inc()        // sim family on sim registry
	CtrlObs.Counter("llmpq_dist_heartbeats_total").Inc() // ctrl family on ctrl registry

	Obs.Counter("llmpq_dist_heartbeats_total").Inc()  // want "is a ctrl family per simctrl.manifest but is registered on the sim registry"
	CtrlObs.Counter("llmpq_engine_steps_total").Inc() // want "is a sim family per simctrl.manifest but is registered on the ctrl registry"

	// Exact sim names carve exceptions out of the llmpq_dist_* ctrl glob.
	Obs.Counter("llmpq_dist_workers").Inc()
	CtrlObs.Gauge("llmpq_dist_workers") // want "is a sim family per simctrl.manifest but is registered on the ctrl registry"

	// Constant-folded names classify like literals.
	CtrlObs.Counter(replansFamily).Inc() // want "is a sim family per simctrl.manifest but is registered on the ctrl registry"

	// Unlisted families are unconstrained.
	Obs.Counter("some_other_family").Inc()
	CtrlObs.Counter("some_other_family").Inc()
}

// ctrlInc forwards its parameter as a family name on the ctrl registry;
// the analyzer checks literal names at the call sites.
func ctrlInc(name string) {
	CtrlObs.Counter(name).Inc()
}

func viaWrapper() {
	ctrlInc("llmpq_dist_resends_total")
	ctrlInc("llmpq_engine_steps_total") // want "is a sim family per simctrl.manifest but is registered on the ctrl registry"
}

// serveHandler mirrors the HTTP front door (internal/serve): wall-clock
// llmpq_serve_* families belong on the ctrl registry, and a sim
// llmpq_online_* family registered from a serve handler is exactly the
// leak that would poison the byte-diffed artifact.
func serveHandler() {
	CtrlObs.Counter("llmpq_serve_http_requests_total").Inc()
	CtrlObs.Counter("llmpq_online_completed_total").Inc() // want "is a sim family per simctrl.manifest but is registered on the ctrl registry"
	Obs.Counter("llmpq_serve_http_shed_total").Inc()      // want "is a ctrl family per simctrl.manifest but is registered on the sim registry"
}

// dynamic names cannot be classified and are skipped.
func dynamic(suffix string) {
	Obs.Counter("llmpq_" + suffix).Inc()
}

// neutral receiver names stay unknown and are skipped.
func neutral(r *Registry) {
	r.Counter("llmpq_dist_heartbeats_total").Inc()
}
