package bench

import "errors"

// ServeRunner is the implementation of the "serve" experiment, installed by
// cmd/lsbench from internal/bench/serveexp. The experiment drives the HTTP
// service through the facade package, which this package cannot import: the
// root package's tests import bench, so bench → lucidscript would be a
// cycle. The one-function indirection keeps the registry complete while the
// facade-dependent code lives one package over.
var ServeRunner func(Options) (*Table, error)

// Serve measures what serving standardization over HTTP costs relative to
// calling the library directly. See serveexp.Run for the implementation.
func Serve(opts Options) (*Table, error) {
	if ServeRunner == nil {
		return nil, errors.New("bench: serve experiment not linked in (install bench.ServeRunner, see internal/bench/serveexp)")
	}
	return ServeRunner(opts)
}

// RouteRunner is the implementation of the "route" experiment, installed by
// cmd/lsbench from internal/bench/serveexp for the same import-cycle reason
// as ServeRunner: the routed arm spins up real serve.Servers behind an
// internal/router.Router, and both need the facade.
var RouteRunner func(Options) (*Table, error)

// Route measures what fronting the service with lsrouter costs relative to
// addressing a single replica directly. See serveexp.Route for the
// implementation.
func Route(opts Options) (*Table, error) {
	if RouteRunner == nil {
		return nil, errors.New("bench: route experiment not linked in (install bench.RouteRunner, see internal/bench/serveexp)")
	}
	return RouteRunner(opts)
}

// RegressRunner is the implementation of the "regress" experiment, installed
// by cmd/lsbench from internal/bench/serveexp for the same import-cycle
// reason as ServeRunner: the regress replay includes the serve experiment,
// which needs the facade.
var RegressRunner func(Options) (*Table, error)

// Regress replays the batch, serve, route, and curate (10k corpus only)
// experiments and returns their union of ledger records — the report
// `lsbench -exp regress -json` writes and cmd/benchgate gates against the
// committed BENCH_ledger.json. See serveexp.Regress for the implementation.
func Regress(opts Options) (*Table, error) {
	if RegressRunner == nil {
		return nil, errors.New("bench: regress experiment not linked in (install bench.RegressRunner, see internal/bench/serveexp)")
	}
	return RegressRunner(opts)
}
