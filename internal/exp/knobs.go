package exp

import "camps"

// Knob is one sweepable configuration dimension: a hardware parameter of
// the simulated system or a prefetch engine's tuning parameter. A Spec's
// knob names one of them, so cmd/campsweep (the -knob flag) and
// internal/serve (the job spec's knob/values sweep) accept exactly the
// same dimensions.
type Knob struct {
	Name  string
	Help  string
	Apply func(sys *camps.SystemConfig, v int64)
}

// knobTable lists every dimension: the simulator-level ones, then the
// engines' parameters grouped by engine.
var knobTable = []Knob{
	{"buffer", "prefetch-buffer entries per vault",
		func(sys *camps.SystemConfig, v int64) {
			sys.PFBuffer.SizeBytes = v * int64(sys.PFBuffer.LineBytes)
		}},
	{"window", "per-core MLP window (outstanding misses)",
		func(sys *camps.SystemConfig, v int64) { sys.Processor.WindowSize = int(v) }},
	{"tsv", "per-vault TSV bandwidth in GB/s (0 = unlimited)",
		func(sys *camps.SystemConfig, v int64) { sys.HMC.TSVGBps = v }},
	{"vaults", "vault count (power of two)",
		func(sys *camps.SystemConfig, v int64) { sys.HMC.Vaults = int(v) }},
	{"mshrs", "shared L3 MSHR entries",
		func(sys *camps.SystemConfig, v int64) { sys.L3.MSHRs = int(v) }},
	{"readq", "vault read-queue depth",
		func(sys *camps.SystemConfig, v int64) { sys.HMC.ReadQueue = int(v) }},
	{"port", "vault crossbar ingress port GB/s (0 = unbounded)",
		func(sys *camps.SystemConfig, v int64) { sys.Links.VaultPortGBps = v }},
	{"l2pf", "core-side L2 stride prefetch degree (0 = off)",
		func(sys *camps.SystemConfig, v int64) { sys.Processor.L2PrefetchDegree = int(v) }},
	{"mmd.degree", "MMD maximum prefetch degree",
		func(sys *camps.SystemConfig, v int64) { sys.MMD.MaxDegree = int(v) }},
	{"mmd.epoch", "MMD feedback epoch in demand requests",
		func(sys *camps.SystemConfig, v int64) { sys.MMD.EpochRequests = int(v) }},
	{"ct", "CAMPS conflict-table entries per vault",
		func(sys *camps.SystemConfig, v int64) { sys.CAMPS.CTEntries = int(v) }},
	{"threshold", "CAMPS RUT utilization threshold",
		func(sys *camps.SystemConfig, v int64) { sys.CAMPS.UtilThreshold = int(v) }},
	{"ghb.width", "ghb history occurrences consulted per trigger",
		func(sys *camps.SystemConfig, v int64) { sys.GHB.Width = int(v) }},
	{"ghb.degree", "ghb successors predicted per occurrence",
		func(sys *camps.SystemConfig, v int64) { sys.GHB.Degree = int(v) }},
	{"sisb.entries", "sisb successor-table capacity",
		func(sys *camps.SystemConfig, v int64) { sys.SISB.TableEntries = int(v) }},
	{"sisb.degree", "sisb chained predictions per trigger",
		func(sys *camps.SystemConfig, v int64) { sys.SISB.Degree = int(v) }},
	{"bo.rounds", "bestoffset scoring rounds per learning phase",
		func(sys *camps.SystemConfig, v int64) { sys.BestOffset.RoundMax = int(v) }},
	{"bo.rr", "bestoffset recent-request table entries (power of two)",
		func(sys *camps.SystemConfig, v int64) { sys.BestOffset.RREntries = int(v) }},
	{"hybrid.epoch", "hybrid duel epoch in demand requests",
		func(sys *camps.SystemConfig, v int64) { sys.Hybrid.EpochRequests = int(v) }},
}

// Knobs returns every sweepable knob keyed by name. The map is built
// fresh on every call — callers own it, and the package keeps no mutable
// state.
func Knobs() map[string]Knob {
	m := make(map[string]Knob, len(knobTable))
	for _, k := range knobTable {
		m[k.Name] = k
	}
	return m
}

// lookupKnob returns the named knob, or false if no such dimension
// exists.
func lookupKnob(name string) (Knob, bool) {
	k, ok := Knobs()[name]
	return k, ok
}
