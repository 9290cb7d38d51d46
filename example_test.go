package camps_test

import (
	"context"
	"fmt"

	"camps"
)

// ExampleParseScheme shows scheme name round-tripping.
func ExampleParseScheme() {
	s, _ := camps.ParseScheme("CAMPS-MOD")
	fmt.Println(s)
	for _, sc := range camps.Schemes() {
		fmt.Print(sc, " ")
	}
	fmt.Println()
	// Output:
	// CAMPS-MOD
	// BASE BASE-HIT MMD CAMPS CAMPS-MOD
}

// ExampleMixByID shows Table II lookup.
func ExampleMixByID() {
	mix, _ := camps.MixByID("HM1")
	fmt.Println(mix.ID, len(mix.Benchmarks))
	fmt.Println(mix.Benchmarks[0], mix.Benchmarks[1])
	// Output:
	// HM1 8
	// bwaves gems
}

// ExampleRun runs a small simulation end to end. Its numeric results
// depend on the simulator version, so only structural facts are printed.
func ExampleRun() {
	mix, _ := camps.MixByID("LM1")
	res, err := camps.RunContext(context.Background(), camps.RunConfig{
		Scheme:       camps.CAMPSMOD,
		Mix:          mix,
		WarmupRefs:   2_000,
		MeasureInstr: 20_000,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("cores:", len(res.IPC))
	fmt.Println("scheme:", res.Scheme)
	fmt.Println("positive IPC:", res.GeoMeanIPC > 0)
	// Output:
	// cores: 8
	// scheme: CAMPS-MOD
	// positive IPC: true
}

// ExampleDefaultSystem shows how to derive an ablation configuration.
func ExampleDefaultSystem() {
	sys := camps.DefaultSystem()
	fmt.Println("vaults:", sys.HMC.Vaults)
	fmt.Println("banks/vault:", sys.HMC.Banks())
	fmt.Println("buffer entries:", sys.PFBuffer.Entries())
	fmt.Println("scheduler:", sys.HMC.Scheduler)
	// Output:
	// vaults: 32
	// banks/vault: 16
	// buffer entries: 16
	// scheduler: FR-FCFS
}
