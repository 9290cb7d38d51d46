package exp

import (
	"errors"
	"fmt"

	"camps"
	"camps/internal/workload"
)

// Spec names a campaign: the cross product of mixes × schemes × seeds
// (× one knob's values, when a knob sweep is requested), simulated with
// the given run lengths, fault environment and invariant checker. It is
// the one description campserve's job specs, cmd/campsweep and the sweep
// example build, so all of them accept the same names and expand them
// in the same order. The JSON tags are campserve's wire and journal
// field names.
type Spec struct {
	// Mixes and Schemes are crossed to enumerate cells. Both accept any
	// known name (Table II and extension mixes; every engine in the
	// prefetch scheme table).
	Mixes   []string `json:"mixes"`
	Schemes []string `json:"schemes"`
	// Seeds decorrelate synthetic traces (default [1]; 0 normalizes to 1).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Knob/Values request a configuration sweep: every cell is further
	// crossed with each value of the named knob (see Knobs).
	Knob   string  `json:"knob,omitempty"`
	Values []int64 `json:"values,omitempty"`
	// Instr and Warmup scale each cell's simulation (0 = camps default).
	Instr  uint64 `json:"instr,omitempty"`
	Warmup uint64 `json:"warmup,omitempty"`
	// Faults is a deterministic fault-injection spec in the -faults
	// grammar ("" = fault-free).
	Faults string `json:"faults,omitempty"`
	// Check arms the epoch invariant checker in every cell.
	Check bool `json:"check,omitempty"`
}

// NormalizeSeeds rewrites Seeds as Expand enumerates them: no seeds
// become [1], and a 0 seed becomes 1.
func (s *Spec) NormalizeSeeds() {
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	for i, seed := range s.Seeds {
		if seed == 0 {
			s.Seeds[i] = 1
		}
	}
}

// CellCount is the size of the expanded campaign, computed without
// building it.
func (s *Spec) CellCount() int {
	n := len(s.Mixes) * len(s.Schemes) * max(len(s.Seeds), 1)
	if s.Knob != "" {
		n *= len(s.Values)
	}
	return n
}

// Validate checks every name of the spec — mixes, schemes, the knob and
// its values, the fault grammar — and returns the first problem as a
// client-facing error.
func (s *Spec) Validate() error {
	_, err := s.resolve()
	return err
}

// Expand validates the spec and expands it. The cells come in Grid's
// order with the knob values innermost: seed, then mix, scheme, value.
// The options are o with the spec's run lengths, fault environment and
// invariant checker filled in.
func (s *Spec) Expand(o Options) ([]Cell, Options, error) {
	r, err := s.resolve()
	if err != nil {
		return nil, o, err
	}
	o.MeasureInstr, o.WarmupRefs = s.Instr, s.Warmup
	o.Faults, o.CheckInvariants = r.faults, s.Check
	grid := Grid(r.mixes, r.schemes, s.Seeds)
	if s.Knob == "" {
		return grid, o, nil
	}
	cells := make([]Cell, 0, len(grid)*len(s.Values))
	for _, c := range grid {
		for _, v := range s.Values {
			c.Knob, c.Value = s.Knob, v
			c.Apply = func(sys *camps.SystemConfig) { r.knob.Apply(sys, v) }
			cells = append(cells, c)
		}
	}
	return cells, o, nil
}

// resolved is a spec with its names looked up.
type resolved struct {
	mixes   []workload.Mix
	schemes []camps.Scheme
	knob    Knob
	faults  camps.FaultSpec
}

func (s *Spec) resolve() (resolved, error) {
	var r resolved
	if len(s.Mixes) == 0 {
		return r, errors.New("spec needs at least one mix")
	}
	if len(s.Schemes) == 0 {
		return r, errors.New("spec needs at least one scheme")
	}
	for _, id := range s.Mixes {
		m, err := camps.AnyMixByID(id)
		if err != nil {
			return r, fmt.Errorf("mix %q: %w", id, err)
		}
		r.mixes = append(r.mixes, m)
	}
	for _, name := range s.Schemes {
		sc, err := camps.ParseScheme(name)
		if err != nil {
			return r, fmt.Errorf("scheme %q: %w", name, err)
		}
		r.schemes = append(r.schemes, sc)
	}
	if s.Knob != "" {
		k, ok := lookupKnob(s.Knob)
		if !ok {
			return r, fmt.Errorf("unknown knob %q", s.Knob)
		}
		if len(s.Values) == 0 {
			return r, errors.New("knob sweep needs values")
		}
		r.knob = k
	} else if len(s.Values) != 0 {
		return r, errors.New("values without a knob")
	}
	if s.Faults != "" {
		f, err := camps.ParseFaultSpec(s.Faults)
		if err != nil {
			return r, fmt.Errorf("faults: %w", err)
		}
		r.faults = f
	}
	return r, nil
}
