// Package obs is the solver pipeline's observability layer: a metrics
// registry (atomic counters, gauges, and fixed log-scale histograms), a
// span tracer with an in-memory ring buffer exportable as Chrome
// trace_event JSON, and an expvar bridge for net/http/pprof sessions.
//
// The package is zero-dependency (standard library only) and inert by
// default, mirroring internal/faultinject: every instrumentation hook —
// Counter.Add, Histogram.Record, StartSpan — first reads one process-global
// atomic gate word and returns immediately when its facility is disabled.
// The disabled cost is therefore a single uncontended atomic load per hook,
// cheap enough to leave the hooks inside hot loops (segment-tree ops, DP
// rows, branch-and-bound nodes); the committed BENCH.json regression gate pins the
// claim, and docs/OBSERVABILITY.md records the measured overhead.
//
// Enabling is process-global and not synchronized with in-flight solves:
// flip the gates at startup (the cmds do, via internal/obs/obscli) or
// between solves in tests. Tests that enable a facility must not run in
// parallel with other solving tests, exactly like faultinject plan
// activation. Neither facility ever changes solver behaviour — metrics and
// spans observe, they do not steer — and internal/difftest pins that
// enabling them leaves every solver's output byte-identical.
package obs

import "sync/atomic"

const (
	gateMetrics = 1 << iota
	gateTracing
)

// gate is the single enabled-check word: bit 0 = metrics, bit 1 = tracing.
var gate atomic.Uint32

// MetricsOn reports whether the metrics registry is recording. One atomic
// load; this is the only cost every disabled metrics hook pays.
func MetricsOn() bool { return gate.Load()&gateMetrics != 0 }

// TracingOn reports whether the span tracer is recording. One atomic load.
func TracingOn() bool { return gate.Load()&gateTracing != 0 }

// EnableMetrics turns the metrics registry on. Counters keep whatever
// values they already held; call Reset first for a clean slate.
func EnableMetrics() { setGate(gateMetrics, true) }

// DisableMetrics turns the metrics registry off. Values are retained and
// can still be read/dumped; they just stop moving.
func DisableMetrics() { setGate(gateMetrics, false) }

func setGate(bit uint32, on bool) {
	for {
		old := gate.Load()
		next := old &^ bit
		if on {
			next = old | bit
		}
		if gate.CompareAndSwap(old, next) {
			return
		}
	}
}
