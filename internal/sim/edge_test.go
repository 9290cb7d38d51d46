package sim

import (
	"strings"
	"testing"
)

// Clock conversions must survive durations and cycle counts whose
// intermediate product overflows int64. Regression for the d*den wrap: a
// 2999 MHz clock has den=2999 after reduction, so the old single-word
// ToCycles corrupted every conversion past ~51 simulated minutes.
func TestClockConversionExtremeDurations(t *testing.T) {
	c := NewClock(2999)
	// One simulated hour: 3.6e15 ps. d*den ~ 1.08e19 overflows int64.
	hour := Time(3_600_000_000_000_000)
	wantCycles := int64(10_796_400_000_000) // 3.6e15 ps * 2999 MHz / 1e6
	if got := c.ToCycles(hour); got != wantCycles {
		t.Fatalf("ToCycles(1h at 2999MHz) = %d, want %d", got, wantCycles)
	}
	if got := c.ToCyclesCeil(hour); got != wantCycles {
		t.Fatalf("ToCyclesCeil(1h at 2999MHz) = %d, want %d (exact edge)", got, wantCycles)
	}
	if got := c.ToCyclesCeil(hour + 1); got != wantCycles+1 {
		t.Fatalf("ToCyclesCeil(1h+1ps) = %d, want %d", got, wantCycles+1)
	}
	if got := c.Cycles(wantCycles); got != hour {
		t.Fatalf("Cycles(%d) = %d, want %d", wantCycles, got, hour)
	}
	// Round-trip consistency deep into the representable range: floor
	// then ceil must bracket the instant for a non-integral period.
	cpu := NewClock(3000) // 1000/3 ps period
	for _, d := range []Time{1 << 40, 1 << 50, 1 << 60, 1<<62 + 12345} {
		n := cpu.ToCycles(d)
		if at := cpu.Cycles(n); at > d {
			t.Fatalf("Cycles(ToCycles(%d)) = %d, past the instant", d, at)
		}
		if edge := cpu.NextEdge(d); edge < d {
			t.Fatalf("NextEdge(%d) = %d, before the instant", d, edge)
		}
	}
}

func TestClockConversionOverflowPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "overflows") {
			t.Fatalf("unrepresentable conversion did not panic with overflow (got %q)", msg)
		}
	}()
	// Quotient exceeds int64: ~9.2e18 cycles * (1e6/2999) ps/cycle.
	NewClock(2999).Cycles(1<<63 - 1)
}

func TestRunForNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunFor(-1) did not panic")
		}
	}()
	NewEngine().RunFor(-1)
}

func TestRunUntilPastDeadlineIsNoop(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.At(5, func() { fired = true })
	eng.RunFor(10)
	if !fired || eng.Now() != 10 {
		t.Fatalf("setup: fired=%v now=%v", fired, eng.Now())
	}
	eng.At(15, func() { t.Fatal("event fired despite past deadline") })
	eng.RunUntil(3) // explicitly documented no-op
	if eng.Now() != 10 {
		t.Fatalf("RunUntil(past) moved the clock to %v", eng.Now())
	}
}

// Same-instant events fire in the order they were scheduled, which is
// also scheduling-time order: the clock never runs backwards while
// scheduling, so an event scheduled later in simulated time always
// carries a larger sequence number.
func TestSameInstantOrderBySchedThenSeq(t *testing.T) {
	eng := NewEngine()
	var order []string
	eng.At(20, func() { order = append(order, "sched0-a") }) // scheduled at t=0
	eng.At(10, func() {
		eng.At(20, func() { order = append(order, "sched10") })
	})
	eng.At(20, func() { order = append(order, "sched0-b") })
	eng.Run()
	want := "sched0-a,sched0-b,sched10"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("same-instant order = %s, want %s", got, want)
	}
}
