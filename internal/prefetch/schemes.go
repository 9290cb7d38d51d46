package prefetch

import (
	"fmt"
	"sort"
	"strings"

	"camps/internal/config"
	"camps/internal/pfbuffer"
)

// Scheme identifies a prefetch engine: it indexes the schemes table.
// Exported results marshal Scheme as an integer and the committed
// same-seed goldens pin these values, so the constants never move.
type Scheme int

const (
	// Base prefetches a whole row on every first access.
	Base Scheme = iota
	// BaseHit prefetches a row with >= 2 pending read-queue requests.
	BaseHit
	// MMD adapts prefetch degree to usefulness, LRU buffer.
	MMD
	// CAMPS is conflict-aware prefetching with LRU buffer management.
	CAMPS
	// CAMPSMOD is CAMPS with utilization+recency buffer management.
	CAMPSMOD
	// None disables prefetching entirely — the unmodified HMC, a reference
	// point beyond the paper's five compared schemes.
	None
	// ASD is a row-granularity adaptation of Hur & Lin's Adaptive Stream
	// Detection (the paper's related work [10]); an extension scheme.
	ASD
	// GHB is a global-history-buffer width prefetcher over the
	// row-activation stream (extension).
	GHB
	// SISB is a temporal next-address predictor with a bounded training
	// table (extension).
	SISB
	// BestOffset scores row offsets against a recent-request table
	// (extension, after Michaud's Best-Offset prefetcher).
	BestOffset
	// Hybrid set-duels the other engines per vault at epoch granularity
	// (meta-engine extension).
	Hybrid
)

// Descriptor describes one engine: its names, the prefetch-buffer
// replacement policy it requires, and its factory.
type Descriptor struct {
	// Name is the canonical spelling (String, CLI help, error text).
	Name string
	// Aliases are additional accepted spellings (ParseScheme).
	Aliases []string
	// Policy is the prefetch-buffer replacement policy the engine needs.
	Policy pfbuffer.Policy
	// New constructs the engine for one vault; nil for Hybrid (see New).
	New func(cfg config.Config, ctx Context) Engine
}

// schemes is the closed engine set, indexed by Scheme. The set is fixed
// at build time: the package is internal, so no engine can join it from
// outside this module. A duplicate index fails to compile; a missing one
// leaves a zero entry that TestSchemeTable rejects.
var schemes = [...]Descriptor{
	// Fetch the whole row on first access, precharge after.
	Base: {Name: "BASE", Policy: pfbuffer.LRU,
		New: func(config.Config, Context) Engine { return &baseEngine{} }},
	// Fetch a row once >= 2 reads for it are queued.
	BaseHit: {Name: "BASE-HIT", Policy: pfbuffer.LRU,
		New: func(_ config.Config, ctx Context) Engine { return newBaseHit(ctx) }},
	// Sequential-row prefetch, degree adapted to usefulness per epoch.
	MMD: {Name: "MMD", Policy: pfbuffer.LRU,
		New: func(cfg config.Config, ctx Context) Engine { return newMMD(cfg.MMD, ctx) }},
	// Conflict-aware prefetching (RUT + CT), LRU buffer.
	CAMPS: {Name: "CAMPS", Policy: pfbuffer.LRU,
		New: func(cfg config.Config, ctx Context) Engine { return newCAMPS(cfg.CAMPS, ctx) }},
	// CAMPS with the utilization+recency buffer policy.
	CAMPSMOD: {Name: "CAMPS-MOD", Policy: pfbuffer.UtilRecency,
		New: func(cfg config.Config, ctx Context) Engine { return newCAMPS(cfg.CAMPS, ctx) }},
	// Prefetching disabled (unmodified HMC).
	None: {Name: "NONE", Policy: pfbuffer.LRU,
		New: func(config.Config, Context) Engine { return newNone() }},
	// Row-granularity adaptive stream detection.
	ASD: {Name: "ASD", Policy: pfbuffer.LRU,
		New: func(_ config.Config, ctx Context) Engine { return newASD(ctx) }},
	// GHB/AIT width prefetcher over row activations.
	GHB: {Name: "ghb", Policy: pfbuffer.LRU,
		New: func(cfg config.Config, ctx Context) Engine { return newGHB(cfg.GHB, ctx) }},
	// Temporal next-row prediction, bounded training table.
	SISB: {Name: "sisb", Policy: pfbuffer.LRU,
		New: func(cfg config.Config, ctx Context) Engine { return newSISB(cfg.SISB, ctx) }},
	// Best-offset prefetch: offset scoring rounds at row granularity.
	BestOffset: {Name: "bestoffset", Aliases: []string{"best-offset"}, Policy: pfbuffer.LRU,
		New: func(cfg config.Config, ctx Context) Engine { return newBestOffset(cfg.BestOffset, ctx) }},
	// Set-duels candidate engines (config.Hybrid.Candidates) per vault
	// at epoch granularity. Its factory reads this table, so it cannot
	// sit in it (Go rejects the initialization cycle): New builds it by
	// name.
	Hybrid: {Name: "hybrid", Policy: pfbuffer.LRU},
}

// Valid reports whether s names an engine of the table.
func (s Scheme) Valid() bool { return s >= 0 && int(s) < len(schemes) }

// lookup resolves a scheme name (canonical or alias, case-insensitive).
// It scans the table, so it belongs on parse and construction paths,
// never on a per-event one.
func lookup(name string) (Scheme, bool) {
	for i := range schemes {
		if strings.EqualFold(name, schemes[i].Name) {
			return Scheme(i), true
		}
		for _, a := range schemes[i].Aliases {
			if strings.EqualFold(name, a) {
				return Scheme(i), true
			}
		}
	}
	return 0, false
}

// Describe returns the scheme's descriptor; it panics on a value outside
// the table (use ParseScheme to validate names first).
func Describe(s Scheme) Descriptor {
	if !s.Valid() {
		panic(fmt.Sprintf("prefetch: unknown scheme %d", int(s)))
	}
	return schemes[s]
}

// Names lists every canonical engine name in Scheme order.
func Names() []string {
	names := make([]string, len(schemes))
	for i := range schemes {
		names[i] = schemes[i].Name
	}
	return names
}

// Schemes lists the paper's five compared schemes in presentation order.
func Schemes() []Scheme { return []Scheme{Base, BaseHit, MMD, CAMPS, CAMPSMOD} }

// AllSchemes lists every scheme in Scheme order.
func AllSchemes() []Scheme {
	out := make([]Scheme, len(schemes))
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}

// String returns the engine's canonical name.
func (s Scheme) String() string {
	if s.Valid() {
		return schemes[s].Name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme resolves a scheme name (as printed by String, or any alias,
// case-insensitively) to its Scheme value. The error for an unknown name
// enumerates every canonical name, sorted.
func ParseScheme(name string) (Scheme, error) {
	if s, ok := lookup(name); ok {
		return s, nil
	}
	return 0, fmt.Errorf("prefetch: unknown scheme %q (registered: %s)",
		name, strings.Join(sortedNames(), ", "))
}

// sortedNames returns the canonical names in sorted order for error text.
func sortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}

// ValidateConfig checks the parts of the configuration that name engines —
// currently that every hybrid candidate names an engine other than the
// hybrid itself. camps.RunContext calls this alongside config.Validate.
func ValidateConfig(cfg config.Config) error {
	for _, name := range cfg.Hybrid.Candidates {
		s, ok := lookup(name)
		if !ok {
			return fmt.Errorf("prefetch: hybrid candidate %q is not a registered engine (registered: %s)",
				name, strings.Join(sortedNames(), ", "))
		}
		if s == Hybrid {
			return fmt.Errorf("prefetch: hybrid candidate %q is a meta-engine", name)
		}
	}
	return nil
}
