// Package workload defines the synthetic stand-ins for the SPEC CPU2006
// benchmarks the paper uses and the twelve eight-core multiprogrammed
// mixes of Table II (HM1-4, LM1-4, MX1-4).
//
// SPEC traces are proprietary, so each benchmark is characterized by a
// trace.Profile capturing the properties that matter to the mechanisms
// under study: footprint (memory intensity class against the 16 MB shared
// L3), streaming vs. irregular access (row utilization), hot-row behaviour
// (row-buffer conflicts), and read/write mix. The parameters are chosen so
// high-memory-intensity (HM) benchmarks miss the cache hierarchy heavily
// (MPKI >= 20 in the paper's classification) while low-intensity (LM) ones
// mostly hit (1 <= MPKI < 20).
package workload

import (
	"errors"
	"fmt"
	"sort"

	"camps/internal/trace"
)

// Class is a benchmark's memory-intensity class per §4.1.
type Class int

const (
	// HighIntensity marks MPKI >= 20 benchmarks (HM).
	HighIntensity Class = iota
	// LowIntensity marks 1 <= MPKI < 20 benchmarks (LM).
	LowIntensity
)

// String returns the paper's abbreviation.
func (c Class) String() string {
	if c == HighIntensity {
		return "HM"
	}
	return "LM"
}

// Benchmark couples a profile with its intensity class.
type Benchmark struct {
	Profile trace.Profile
	Class   Class
}

const (
	line       = 64
	rowBytes   = 1 << 10
	bankStride = 512 << 10 // same (vault,bank), next row, under RoRaBaVaCo
	mib        = 1 << 20
)

// benchmarks is the parameter table for the 15 SPEC CPU2006 applications
// appearing in Table II. Streaming codes get high StreamProb and several
// streams; pointer-chasing codes get low StreamProb; conflict-prone codes
// get a hot-row set spaced at the bank stride.
var benchmarks = map[string]Benchmark{
	// --- High memory intensity (HM) ---
	"bwaves": {Class: HighIntensity, Profile: trace.Profile{
		Name: "bwaves", FootprintBytes: 192 * mib, GapMean: 1.2, ReadFrac: 0.80,
		Streams: 6, StreamProb: 0.46, StrideBytes: line,
		ConflictProb: 0.15, ConflictStreams: 4, ConflictStride: bankStride, LineBytes: line}},
	"gems": {Class: HighIntensity, Profile: trace.Profile{
		Name: "gems", FootprintBytes: 256 * mib, GapMean: 1.3, ReadFrac: 0.75,
		Streams: 8, StreamProb: 0.39, StrideBytes: line,
		ConflictProb: 0.20, ConflictStreams: 4, ConflictStride: bankStride, LineBytes: line}},
	"gcc": {Class: HighIntensity, Profile: trace.Profile{
		Name: "gcc", FootprintBytes: 96 * mib, GapMean: 1.7, ReadFrac: 0.72,
		Streams: 4, StreamProb: 0.19, StrideBytes: line,
		ConflictProb: 0.32, ConflictStreams: 5, ConflictStride: bankStride, LineBytes: line}},
	"lbm": {Class: HighIntensity, Profile: trace.Profile{
		Name: "lbm", FootprintBytes: 224 * mib, GapMean: 1.1, ReadFrac: 0.55,
		Streams: 4, StreamProb: 0.52, StrideBytes: line,
		ConflictProb: 0.12, ConflictStreams: 3, ConflictStride: bankStride, LineBytes: line}},
	"milc": {Class: HighIntensity, Profile: trace.Profile{
		Name: "milc", FootprintBytes: 160 * mib, GapMean: 1.4, ReadFrac: 0.78,
		Streams: 6, StreamProb: 0.29, StrideBytes: 2 * line,
		ConflictProb: 0.25, ConflictStreams: 4, ConflictStride: bankStride, LineBytes: line}},
	"sphinx": {Class: HighIntensity, Profile: trace.Profile{
		Name: "sphinx", FootprintBytes: 128 * mib, GapMean: 1.6, ReadFrac: 0.88,
		Streams: 5, StreamProb: 0.34, StrideBytes: line,
		ConflictProb: 0.22, ConflictStreams: 4, ConflictStride: bankStride, LineBytes: line}},
	"omnetpp": {Class: HighIntensity, Profile: trace.Profile{
		Name: "omnetpp", FootprintBytes: 128 * mib, GapMean: 1.8, ReadFrac: 0.70,
		Streams: 3, StreamProb: 0.12, StrideBytes: line,
		ConflictProb: 0.38, ConflictStreams: 6, ConflictStride: bankStride, LineBytes: line}},
	"mcf": {Class: HighIntensity, Profile: trace.Profile{
		Name: "mcf", FootprintBytes: 256 * mib, GapMean: 1.2, ReadFrac: 0.76,
		Streams: 3, StreamProb: 0.12, StrideBytes: line,
		ConflictProb: 0.35, ConflictStreams: 6, ConflictStride: bankStride, LineBytes: line}},

	// --- Low memory intensity (LM) ---
	"cactus": {Class: LowIntensity, Profile: trace.Profile{
		Name: "cactus", FootprintBytes: 5 * mib, GapMean: 4.9, ReadFrac: 0.70,
		Streams: 4, StreamProb: 0.44, StrideBytes: line,
		ConflictProb: 0.12, ConflictStreams: 3, ConflictStride: bankStride, LineBytes: line}},
	"bzip2": {Class: LowIntensity, Profile: trace.Profile{
		Name: "bzip2", FootprintBytes: 5 * mib, GapMean: 5.4, ReadFrac: 0.68,
		Streams: 3, StreamProb: 0.29, StrideBytes: line,
		ConflictProb: 0.18, ConflictStreams: 3, ConflictStride: bankStride, LineBytes: line}},
	"astar": {Class: LowIntensity, Profile: trace.Profile{
		Name: "astar", FootprintBytes: 5 * mib, GapMean: 5.2, ReadFrac: 0.74,
		Streams: 2, StreamProb: 0.12, StrideBytes: line,
		ConflictProb: 0.25, ConflictStreams: 4, ConflictStride: bankStride, LineBytes: line}},
	"wrf": {Class: LowIntensity, Profile: trace.Profile{
		Name: "wrf", FootprintBytes: 5 * mib, GapMean: 4.5, ReadFrac: 0.72,
		Streams: 5, StreamProb: 0.49, StrideBytes: line,
		ConflictProb: 0.08, ConflictStreams: 3, ConflictStride: bankStride, LineBytes: line}},
	"tonto": {Class: LowIntensity, Profile: trace.Profile{
		Name: "tonto", FootprintBytes: 5 * mib, GapMean: 5.9, ReadFrac: 0.75,
		Streams: 3, StreamProb: 0.34, StrideBytes: line,
		ConflictProb: 0.15, ConflictStreams: 3, ConflictStride: bankStride, LineBytes: line}},
	"zeusmp": {Class: LowIntensity, Profile: trace.Profile{
		Name: "zeusmp", FootprintBytes: 5 * mib, GapMean: 4.3, ReadFrac: 0.70,
		Streams: 4, StreamProb: 0.52, StrideBytes: line,
		ConflictProb: 0.08, ConflictStreams: 3, ConflictStride: bankStride, LineBytes: line}},
	"h264ref": {Class: LowIntensity, Profile: trace.Profile{
		Name: "h264ref", FootprintBytes: 5 * mib, GapMean: 5.6, ReadFrac: 0.80,
		Streams: 3, StreamProb: 0.39, StrideBytes: line,
		ConflictProb: 0.15, ConflictStreams: 3, ConflictStride: bankStride, LineBytes: line}},
}

// Names returns all benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(benchmarks))
	for n := range benchmarks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Mix is one eight-core multiprogrammed workload of Table II.
type Mix struct {
	ID         string
	Benchmarks []string // one per core, in order
}

// mixes reproduces Table II verbatim.
var mixes = []Mix{
	{"HM1", []string{"bwaves", "gems", "gcc", "lbm", "bwaves", "gcc", "lbm", "gems"}},
	{"HM2", []string{"milc", "gems", "sphinx", "omnetpp", "sphinx", "milc", "omnetpp", "gems"}},
	{"HM3", []string{"gcc", "mcf", "lbm", "milc", "mcf", "gcc", "milc", "lbm"}},
	{"HM4", []string{"sphinx", "gcc", "lbm", "bwaves", "sphinx", "bwaves", "lbm", "gcc"}},
	{"LM1", []string{"cactus", "bzip2", "astar", "wrf", "wrf", "bzip2", "cactus", "astar"}},
	{"LM2", []string{"tonto", "zeusmp", "h264ref", "astar", "zeusmp", "h264ref", "astar", "tonto"}},
	{"LM3", []string{"bzip2", "zeusmp", "cactus", "tonto", "cactus", "zeusmp", "bzip2", "tonto"}},
	{"LM4", []string{"astar", "tonto", "bzip2", "h264ref", "tonto", "astar", "bzip2", "h264ref"}},
	{"MX1", []string{"bwaves", "gcc", "cactus", "wrf", "cactus", "gcc", "wrf", "bwaves"}},
	{"MX2", []string{"gems", "sphinx", "tonto", "h264ref", "sphinx", "gems", "h264ref", "tonto"}},
	{"MX3", []string{"milc", "lbm", "wrf", "bzip2", "lbm", "bzip2", "milc", "wrf"}},
	{"MX4", []string{"gcc", "bwaves", "bzip2", "astar", "bwaves", "gcc", "bzip2", "astar"}},
}

// Mixes returns all twelve mixes in presentation order (HM, LM, MX).
func Mixes() []Mix {
	out := make([]Mix, len(mixes))
	copy(out, mixes)
	return out
}

// ErrUnknownMix is the sentinel every mix-lookup failure matches via
// errors.Is, regardless of which identifier was asked for.
var ErrUnknownMix = errors.New("workload: unknown mix")

// UnknownMixError reports a failed mix lookup; it carries the identifier
// for errors.As callers and matches ErrUnknownMix under errors.Is.
type UnknownMixError struct {
	ID string
}

func (e *UnknownMixError) Error() string { return fmt.Sprintf("workload: unknown mix %q", e.ID) }

// Is matches the ErrUnknownMix sentinel.
func (e *UnknownMixError) Is(target error) bool { return target == ErrUnknownMix }

// MixByID looks a mix up by its Table II identifier.
func MixByID(id string) (Mix, error) {
	for _, m := range mixes {
		if m.ID == id {
			return m, nil
		}
	}
	return Mix{}, &UnknownMixError{ID: id}
}

// CoreRegion is the physical-address partition given to each core so
// multiprogrammed workloads do not share data: 512 MiB slices of the 4 GiB
// cube. A mix on n cores addresses [0, n*CoreRegion).
const CoreRegion = 512 * mib

// Generators builds one trace generator per core for the mix. The seed
// decorrelates runs; each core's sub-seed also folds in its index and
// benchmark so identical benchmarks on different cores produce different
// streams.
func (m Mix) Generators(seed uint64) ([]*trace.Generator, error) {
	gens := make([]*trace.Generator, len(m.Benchmarks))
	for core, name := range m.Benchmarks {
		b, err := GetAny(name)
		if err != nil {
			return nil, fmt.Errorf("mix %s core %d: %w", m.ID, core, err)
		}
		base := uint64(core) * CoreRegion
		sub := seed ^ (uint64(core)+1)*0x9e3779b97f4a7c15 ^ hashName(name)
		g, err := trace.NewGenerator(b.Profile, base, sub)
		if err != nil {
			return nil, fmt.Errorf("mix %s core %d (%s): %w", m.ID, core, name, err)
		}
		gens[core] = g
	}
	return gens, nil
}

// hashName is FNV-1a over the benchmark name.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
