package lint

import (
	"go/ast"
	"go/types"
)

// TickArith flags conversions and arithmetic that mix sim.Time
// (simulated picoseconds, advanced by the event engine) with
// time.Duration (wall-clock nanoseconds). The two are both int64 under
// the hood and three orders of magnitude apart in unit, so a direct
// conversion is almost always a latent unit bug; code that genuinely
// needs to cross the boundary converts through an explicit int64 with
// named picosecond/nanosecond helpers so the unit change is visible.
var TickArith = &Analyzer{
	Name: "tickarith",
	Doc:  "flag conversions/arithmetic mixing sim.Time ticks with time.Duration",
	Run:  runTickArith,
}

const simPkgPath = "camps/internal/sim"

func isSimTime(t types.Type) bool  { return t != nil && namedType(t, simPkgPath, "Time") }
func isDuration(t types.Type) bool { return t != nil && namedType(t, "time", "Duration") }

func runTickArith(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if len(n.Args) != 1 {
					return true
				}
				tv, ok := pass.Info.Types[n.Fun]
				if !ok || !tv.IsType() {
					return true
				}
				src := pass.Info.TypeOf(n.Args[0])
				dst := tv.Type
				switch {
				case isSimTime(src) && isDuration(dst):
					pass.reportf(n.Pos(),
						"conversion of sim.Time (simulated picoseconds) to time.Duration (wall-clock nanoseconds): units differ by 1000x; convert through an explicit int64 picosecond count")
				case isDuration(src) && isSimTime(dst):
					pass.reportf(n.Pos(),
						"conversion of time.Duration (wall-clock nanoseconds) to sim.Time (simulated picoseconds): units differ by 1000x; convert through an explicit int64 picosecond count")
				}
			case *ast.BinaryExpr:
				x, y := pass.Info.TypeOf(n.X), pass.Info.TypeOf(n.Y)
				if (isSimTime(x) && isDuration(y)) || (isDuration(x) && isSimTime(y)) {
					pass.reportf(n.Pos(),
						"arithmetic mixing sim.Time ticks and time.Duration: the operands are in different units (ps vs ns)")
				}
			}
			return true
		})
	}
}
