// Package fault is the simulator's deterministic fault-injection layer.
//
// The paper's HMC model (and the seed simulator) assumes an ideal logic
// base: link packets, TSV transfers and prefetch-buffer fills never fail.
// The HMC specification the paper builds on defines per-link CRC with
// retry, and degraded-memory behaviour is exactly where prefetch value is
// most fragile — so this package makes faults a first-class, *repeatable*
// workload dimension:
//
//   - HMC link packet CRC errors, modeled as retransmissions that charge
//     the link's serialization path plus a configurable retry turnaround.
//   - Transient vault ingress stalls (crossbar/TSV arbitration glitches).
//   - Prefetch-buffer entry poisoning: a fetched row arrives damaged, is
//     discarded before insert, and the miss is charged to the prefetch
//     engine's usefulness feedback (forcing a re-fetch to recover it).
//   - Periodic DRAM bank unavailability windows (per-bank blackouts).
//
// Every decision is drawn from a splitmix64 stream owned by one injection
// site (a link direction, a vault, a bank), keyed by the run seed, the
// spec seed and the site identity. Site-local streams make the schedule
// independent of cross-component event interleaving: the same seed and the
// same spec produce bit-identical simulations, per campslint's
// simdeterminism rules (no wall clock, no global RNG).
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"camps/internal/sim"
)

// ErrBadSpec matches every fault-spec parse or validation failure under
// errors.Is.
var ErrBadSpec = errors.New("fault: invalid fault spec")

// Spec describes the fault environment of one run. The zero value (and any
// spec whose Enabled method reports false) injects nothing and is
// guaranteed not to perturb the simulation in any way.
type Spec struct {
	// Seed decorrelates fault schedules across specs that otherwise share a
	// run seed. It combines with the run seed; 0 is a valid value.
	Seed uint64

	// LinkCRCRate is the per-packet probability that a link packet fails
	// CRC and must be retransmitted. Each retransmission charges the retry
	// turnaround (config.Links.RetryTurnaround) plus a full
	// re-serialization of the packet.
	LinkCRCRate float64
	// LinkMaxRetries bounds retransmissions per packet (default 3). The
	// packet is delivered after the last retry regardless — links are
	// lossy in latency, never in data, matching HMC's retry guarantee.
	LinkMaxRetries int

	// VaultStallRate is the per-request probability that a request's
	// delivery into its vault is delayed by VaultStallTime (a transient
	// crossbar/TSV arbitration stall).
	VaultStallRate float64
	// VaultStallTime is the stall duration (default 100ns).
	VaultStallTime sim.Time

	// PoisonRate is the per-insert probability that a row fetched into the
	// prefetch buffer arrives damaged and is discarded: the buffer is not
	// filled, and the prefetch engine's feedback tables are charged with a
	// zero-utilization eviction.
	PoisonRate float64

	// BankFailPeriod, when positive, opens one unavailability window per
	// bank every period; the window's phase within the period is drawn
	// per (vault,bank), so blackouts do not align across the cube.
	BankFailPeriod sim.Time
	// BankFailDuration is each window's length (default period/100,
	// capped at period).
	BankFailDuration sim.Time
}

// Enabled reports whether the spec can inject any fault at all. A disabled
// spec behaves identically to no fault layer.
func (s Spec) Enabled() bool {
	return s.LinkCRCRate > 0 || s.VaultStallRate > 0 || s.PoisonRate > 0 ||
		s.BankFailPeriod > 0
}

// withDefaults fills the derived fields of a valid spec.
func (s Spec) withDefaults() Spec {
	if s.LinkMaxRetries <= 0 {
		s.LinkMaxRetries = 3
	}
	if s.VaultStallTime <= 0 {
		s.VaultStallTime = 100 * sim.Nanosecond
	}
	if s.BankFailPeriod > 0 {
		if s.BankFailDuration <= 0 {
			s.BankFailDuration = s.BankFailPeriod / 100
			if s.BankFailDuration <= 0 {
				s.BankFailDuration = 1
			}
		}
		if s.BankFailDuration > s.BankFailPeriod {
			s.BankFailDuration = s.BankFailPeriod
		}
	}
	return s
}

// Validate checks the spec's internal consistency. Every error wraps
// ErrBadSpec.
func (s Spec) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"linkcrc", s.LinkCRCRate}, {"stall", s.VaultStallRate}, {"poison", s.PoisonRate}} {
		if r.v < 0 || r.v > 1 {
			bad("%s rate %g outside [0,1]", r.name, r.v)
		}
	}
	if s.LinkMaxRetries < 0 {
		bad("linkretries %d negative", s.LinkMaxRetries)
	}
	if s.VaultStallTime < 0 {
		bad("stallfor %v negative", s.VaultStallTime)
	}
	if s.BankFailPeriod < 0 {
		bad("bankfail period %v negative", s.BankFailPeriod)
	}
	if s.BankFailDuration < 0 {
		bad("bankfor %v negative", s.BankFailDuration)
	}
	if s.BankFailDuration > 0 && s.BankFailPeriod == 0 {
		bad("bankfor set without bankfail period")
	}
	if s.BankFailPeriod > 0 && s.BankFailDuration > s.BankFailPeriod {
		bad("bankfor %v exceeds bankfail period %v", s.BankFailDuration, s.BankFailPeriod)
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrBadSpec, errors.Join(errs...))
}

// specKeys documents the grammar, in presentation order.
var specKeys = []struct{ key, help string }{
	{"linkcrc", "per-packet link CRC error probability (0..1)"},
	{"linkretries", "max retransmissions per packet (default 3)"},
	{"stall", "per-request vault ingress stall probability (0..1)"},
	{"stallfor", "vault stall duration, e.g. 100ns (default 100ns)"},
	{"poison", "per-insert prefetch-buffer poison probability (0..1)"},
	{"bankfail", "period of per-bank unavailability windows, e.g. 200us"},
	{"bankfor", "duration of each bank window (default period/100)"},
	{"seed", "fault-schedule seed, combined with the run seed"},
}

// Grammar returns a one-line-per-key description of the spec grammar for
// CLI help text.
func Grammar() string {
	var b strings.Builder
	for _, k := range specKeys {
		fmt.Fprintf(&b, "  %-12s %s\n", k.key, k.help)
	}
	return b.String()
}

// ParseSpec parses the textual fault-spec grammar: a comma-separated list
// of key=value pairs, e.g.
//
//	linkcrc=1e-4,stall=5e-5,stallfor=80ns,poison=1e-3,bankfail=200us,seed=7
//
// Rates are floats in [0,1]; durations take ps/ns/us/ms suffixes (a bare
// number means picoseconds). An empty string is the zero (disabled) spec.
// Every error wraps ErrBadSpec.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	seen := map[string]bool{}
	for _, field := range strings.Split(text, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return Spec{}, fmt.Errorf("%w: empty field", ErrBadSpec)
		}
		key, val, ok := strings.Cut(field, "=")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return Spec{}, fmt.Errorf("%w: field %q is not key=value", ErrBadSpec, field)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("%w: duplicate key %q", ErrBadSpec, key)
		}
		seen[key] = true
		var err error
		switch key {
		case "linkcrc":
			s.LinkCRCRate, err = parseRate(val)
		case "linkretries":
			var n int64
			n, err = strconv.ParseInt(val, 10, 32)
			s.LinkMaxRetries = int(n)
		case "stall":
			s.VaultStallRate, err = parseRate(val)
		case "stallfor":
			s.VaultStallTime, err = parseDuration(val)
		case "poison":
			s.PoisonRate, err = parseRate(val)
		case "bankfail":
			s.BankFailPeriod, err = parseDuration(val)
		case "bankfor":
			s.BankFailDuration, err = parseDuration(val)
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			keys := make([]string, len(specKeys))
			for i, k := range specKeys {
				keys[i] = k.key
			}
			sort.Strings(keys)
			return Spec{}, fmt.Errorf("%w: unknown key %q (have %s)",
				ErrBadSpec, key, strings.Join(keys, ", "))
		}
		if err != nil {
			return Spec{}, fmt.Errorf("%w: %s=%q: %v", ErrBadSpec, key, val, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func parseRate(val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, errors.New("not a number")
	}
	if r < 0 || r > 1 {
		return 0, errors.New("rate outside [0,1]")
	}
	return r, nil
}

// parseDuration parses a simulation duration with a ps/ns/us/ms suffix; a
// bare integer is picoseconds. Fractional values are allowed ("2.5us").
func parseDuration(val string) (sim.Time, error) {
	unit := sim.Picosecond
	num := val
	switch {
	case strings.HasSuffix(val, "ms"):
		unit, num = sim.Millisecond, val[:len(val)-2]
	case strings.HasSuffix(val, "us"):
		unit, num = sim.Microsecond, val[:len(val)-2]
	case strings.HasSuffix(val, "ns"):
		unit, num = sim.Nanosecond, val[:len(val)-2]
	case strings.HasSuffix(val, "ps"):
		unit, num = sim.Picosecond, val[:len(val)-2]
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil {
		return 0, errors.New("not a duration (want e.g. 100ns, 2.5us)")
	}
	if f < 0 {
		return 0, errors.New("negative duration")
	}
	d := sim.Time(f * float64(unit))
	if f > 0 && d <= 0 {
		return 0, errors.New("duration overflows or rounds to zero")
	}
	return d, nil
}

// String renders the spec back into the grammar ParseSpec accepts (only
// non-zero fields are emitted, keys in grammar order). Parse(s.String())
// yields a spec equal to s up to defaulted fields.
func (s Spec) String() string {
	var parts []string
	add := func(format string, args ...any) {
		parts = append(parts, fmt.Sprintf(format, args...))
	}
	if s.LinkCRCRate > 0 {
		add("linkcrc=%g", s.LinkCRCRate)
	}
	if s.LinkMaxRetries > 0 {
		add("linkretries=%d", s.LinkMaxRetries)
	}
	if s.VaultStallRate > 0 {
		add("stall=%g", s.VaultStallRate)
	}
	if s.VaultStallTime > 0 {
		add("stallfor=%dps", int64(s.VaultStallTime))
	}
	if s.PoisonRate > 0 {
		add("poison=%g", s.PoisonRate)
	}
	if s.BankFailPeriod > 0 {
		add("bankfail=%dps", int64(s.BankFailPeriod))
	}
	if s.BankFailDuration > 0 {
		add("bankfor=%dps", int64(s.BankFailDuration))
	}
	if s.Seed != 0 {
		add("seed=%d", s.Seed)
	}
	return strings.Join(parts, ",")
}
