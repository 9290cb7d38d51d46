package camps

import (
	"errors"

	"camps/internal/fault"
	"camps/internal/sim"
	"camps/internal/workload"
)

// Sentinel errors for the public API. Every error Run/RunContext returns
// keeps its original human-readable message and additionally matches one
// of these under errors.Is, so callers can branch on the failure class
// without parsing strings.
var (
	// ErrInvalidConfig matches every SystemConfig validation failure and
	// a RunConfig.Scheme outside the scheme table.
	ErrInvalidConfig = errors.New("camps: invalid configuration")
	// ErrMixCoreMismatch matches a workload (mix or explicit readers)
	// whose width differs from the configured core count.
	ErrMixCoreMismatch = errors.New("camps: workload does not match core count")
	// ErrUnknownMix matches failed mix lookups (MixByID, AnyMixByID).
	ErrUnknownMix = workload.ErrUnknownMix
	// ErrInvariant matches a run aborted by the epoch invariant checker:
	// a structural property of the simulation (request accounting, buffer
	// occupancy, table bounds, clock monotonicity) was violated. The full
	// violation is available via errors.As with *sim.InvariantError.
	ErrInvariant = sim.ErrInvariant
	// ErrBadFaultSpec matches every fault-spec parse or validation failure
	// (RunConfig.Faults and the CLIs' -faults grammar).
	ErrBadFaultSpec = fault.ErrBadSpec
	// ErrAddressRange matches a run whose Readers yield a record at or
	// above the first address the system's caches can no longer tag
	// (32 GiB on Table I; see DESIGN.md §3), in warmup or in the measured
	// region.
	ErrAddressRange = errors.New("camps: address beyond the cache tag range")
)

// apiError pairs an unchanged legacy message with the sentinels (and,
// where applicable, the underlying cause) it should match under errors.Is.
type apiError struct {
	msg  string
	refs []error
}

func (e *apiError) Error() string   { return e.msg }
func (e *apiError) Unwrap() []error { return e.refs }
