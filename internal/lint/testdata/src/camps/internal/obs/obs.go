// Package obs is a testdata stand-in for camps/internal/obs with the
// histogram and registry surface the statsreg analyzer recognizes.
package obs

type Histogram struct{ n uint64 }

func NewHistogram() *Histogram { return &Histogram{} }

func (h *Histogram) ObserveInt(v int64) { h.n++ }
func (h *Histogram) Count() uint64      { return h.n }

type Registry struct{}

func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) Histogram(name string) *Histogram { return NewHistogram() }

func (r *Registry) CounterFunc(name string, fn func() uint64) {}
func (r *Registry) GaugeFunc(name string, fn func() float64)  {}
