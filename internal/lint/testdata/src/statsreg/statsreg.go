// Golden file for the statsreg analyzer: metrics constructed directly
// and only observed locally are findings — nothing will ever snapshot
// them. Metrics from a registry, metrics that escape, and the
// conditional-instrumentation idiom are fine.
package statsreg

import (
	"fmt"

	"camps/internal/obs"
)

func BadLocalHistogram() {
	h := obs.NewHistogram() // want `obs.Histogram created but never registered`
	h.ObserveInt(1)
	h.ObserveInt(2)
}

func BadLocalLiteral() uint64 {
	h := &obs.Histogram{} // want `obs.Histogram created but never registered`
	h.ObserveInt(1)
	return h.Count()
}

func BadLocalNew() {
	h := new(obs.Histogram) // want `obs.Histogram created but never registered`
	h.ObserveInt(4)
}

func GoodFromRegistry(r *obs.Registry) {
	h := r.Histogram("vault.latency_ps")
	h.ObserveInt(1)
}

func GoodReturned() *obs.Histogram {
	h := obs.NewHistogram()
	h.ObserveInt(1)
	return h
}

func GoodPassedOn(r *obs.Registry) {
	h := &obs.Histogram{}
	h.ObserveInt(1)
	r.CounterFunc("vault.requests", h.Count) // method value hands the histogram to the registry
}

func GoodStored() map[string]*obs.Histogram {
	h := obs.NewHistogram()
	return map[string]*obs.Histogram{"lat": h}
}

// GoodConditional: a throwaway histogram that is replaced by the
// registry-owned one when observability is enabled.
func GoodConditional(r *obs.Registry, enabled bool) {
	h := obs.NewHistogram()
	if enabled {
		h = r.Histogram("exp.cell_wall_ms")
	}
	h.ObserveInt(1)
}

func BadReassignedCreation() {
	h := obs.NewHistogram() // want `obs.Histogram created but never registered`
	h = obs.NewHistogram()
	h.ObserveInt(1)
}

func AllowedDirective() {
	h := obs.NewHistogram() //lint:allow-unregistered scratch accumulator, merged into the suite by hand
	h.ObserveInt(1)
}

// --- metric-name constancy ---
// Registry lookups must name their metric with a compile-time constant;
// computed names make the metric namespace unenumerable.

const goodName = "vault.row_hits"

func GoodLiteralNames(r *obs.Registry) {
	r.Histogram("vault.latency_ps").ObserveInt(1)
	r.CounterFunc("vault.misses", func() uint64 { return 0 })
	r.GaugeFunc("vault.depth", func() float64 { return 0 })
}

func GoodNamedConstant(r *obs.Registry) {
	r.Histogram(goodName).ObserveInt(1)
	r.Histogram(goodName + "_total").ObserveInt(1) // constant concatenation is still constant
}

func BadSprintfName(r *obs.Registry, vault int) {
	r.Histogram(fmt.Sprintf("vault%d.hits", vault)).ObserveInt(1) // want `metric name passed to Registry.Histogram is not a compile-time constant`
}

func BadVariableName(r *obs.Registry, name string) {
	r.CounterFunc(name, func() uint64 { return 0 }) // want `metric name passed to Registry.CounterFunc is not a compile-time constant`
}

func BadConcatenatedName(r *obs.Registry, suffix string) {
	r.Histogram("span." + suffix).ObserveInt(1) // want `metric name passed to Registry.Histogram is not a compile-time constant`
}

func AllowedDynamicName(r *obs.Registry, name string) {
	r.GaugeFunc(name, func() float64 { return 1 }) //lint:allow-unregistered name validated against a static allowlist upstream
}
