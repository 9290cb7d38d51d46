// Golden file for the tickarith analyzer: direct conversions between
// sim.Time (simulated picoseconds) and time.Duration (wall-clock
// nanoseconds) are findings; crossing the boundary through an explicit
// int64 picosecond count is not.
package tickarith

import (
	"time"

	"camps/internal/sim"
)

func BadTickToDuration(t sim.Time) time.Duration {
	return time.Duration(t) // want `conversion of sim.Time \(simulated picoseconds\) to time.Duration`
}

func BadDurationToTick(d time.Duration) sim.Time {
	return sim.Time(d) // want `conversion of time.Duration \(wall-clock nanoseconds\) to sim.Time`
}

func BadNestedConversion(t sim.Time) bool {
	return time.Duration(t) > time.Millisecond // want `conversion of sim.Time \(simulated picoseconds\) to time.Duration`
}

func GoodExplicitUnitChange(t sim.Time) time.Duration {
	// ps -> ns is an explicit, visible unit change through int64.
	return time.Duration(t.Ps()/1000) * time.Nanosecond
}

func GoodTickArithmetic(t sim.Time) sim.Time {
	return t*2 + sim.Microsecond // pure tick arithmetic is fine
}

func GoodDurationArithmetic(d time.Duration) time.Duration {
	return d * 3 / 2 // pure duration arithmetic is fine
}
