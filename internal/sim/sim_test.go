package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSimulatorFiresInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
	if s.Fired() != 3 {
		t.Fatalf("fired = %d, want 3", s.Fired())
	}
}

func TestSimulatorTieBreakIsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	s.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	s := New()
	var at Time
	s.At(100, func() {
		s.At(10, func() { at = s.Now() })
	})
	s.Run()
	if at != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", at)
	}
}

func TestNegativeAfterClampsToZeroDelay(t *testing.T) {
	s := New()
	var at Time
	s.At(42, func() {
		s.After(-5, func() { at = s.Now() })
	})
	s.Run()
	if at != 42 {
		t.Fatalf("negative delay fired at %v, want 42", at)
	}
}

func TestAtCallPassesFiringTimeAndArg(t *testing.T) {
	s := New()
	type box struct{ n int }
	b := &box{}
	var at Time
	s.AtCall(7, func(now Time, arg any) {
		at = now
		arg.(*box).n++
	}, b)
	s.AfterCall(3, func(now Time, arg any) { arg.(*box).n += 10 }, b)
	s.Run()
	if at != 7 || b.n != 11 {
		t.Fatalf("AtCall/AfterCall: at=%v n=%d, want 7/11", at, b.n)
	}
}

func TestNegativeAfterCallClampsToZeroDelay(t *testing.T) {
	s := New()
	var at Time
	s.At(42, func() {
		s.AfterCall(-5, func(now Time, _ any) { at = now }, nil)
	})
	s.Run()
	if at != 42 {
		t.Fatalf("negative AfterCall delay fired at %v, want 42", at)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("clock = %v, want advanced to deadline 25", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("resume run fired %v, want all 4", fired)
	}
}

func TestRunUntilBarrierSplitsByMark(t *testing.T) {
	s := New()
	var fired []int
	s.At(10, func() { fired = append(fired, 1) }) // before the barrier time
	s.At(20, func() { fired = append(fired, 2) }) // at barrier time, pre-mark
	mark := s.SeqMark()
	s.At(20, func() { fired = append(fired, 3) }) // at barrier time, post-mark
	s.At(30, func() { fired = append(fired, 4) }) // past the barrier

	s.RunUntilBarrier(20, mark)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("barrier fired %v, want pre-mark events 1 and 2 only", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("clock = %v, want advanced to barrier time 20", s.Now())
	}
	if s.Pending() != 2 || s.Fired() != 2 {
		t.Fatalf("pending %d / fired %d, want the post-mark event at 20 and the one past it held", s.Pending(), s.Fired())
	}
	// A re-advance to the barrier time releases the held post-mark event
	// (and nothing past it), so it was held at 20 itself.
	s.RunUntil(20)
	if len(fired) != 3 || fired[2] != 3 || s.Now() != 20 {
		t.Fatalf("re-advance to 20 fired %v at %v, want the held event 3 at 20", fired, s.Now())
	}
	s.RunUntil(30)
	if len(fired) != 4 || fired[3] != 4 || s.Fired() != 4 {
		t.Fatalf("resume fired %v, want 1 2 3 4", fired)
	}
}

func TestRunUntilBarrierEmptyAdvancesClock(t *testing.T) {
	s := New()
	s.RunUntilBarrier(15, s.SeqMark())
	if s.Now() != 15 {
		t.Fatalf("clock = %v, want 15", s.Now())
	}
	if s.Pending() != 0 || s.Fired() != 0 {
		t.Fatalf("empty barrier advance left pending %d, fired %d; want a bare clock bump", s.Pending(), s.Fired())
	}
	// The bumped clock is the floor for later scheduling: an event in
	// the past fires at 15, not before it.
	var firedAt Time
	s.AtCall(5, func(at Time, _ any) { firedAt = at }, nil)
	s.RunUntil(15)
	if firedAt != 15 || s.Fired() != 1 {
		t.Fatalf("past-clamped event fired at %v (fired %d); want 15 and 1", firedAt, s.Fired())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exp(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("exp mean = %.3f, want ≈5", mean)
	}
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Fatal("non-positive mean must return 0")
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("uniform sample %v outside [3,9)", v)
		}
	}
}

func TestSampleBasicStats(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 50}, {99, 99}, {100, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if s.P99() != 99 {
		t.Fatalf("P99 = %v", s.P99())
	}
}

func TestSampleEmptyAndReset(t *testing.T) {
	var s Sample
	if s.Percentile(99) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample must report zeros")
	}
	s.Add(3)
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("Reset must clear all state")
	}
}

func TestSamplePercentileProperty(t *testing.T) {
	// Percentile must be monotone in p and bounded by min/max.
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := s.Percentile(p1), s.Percentile(p2)
		return lo <= hi && lo >= s.Min() && hi <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesClampsBackwardTime(t *testing.T) {
	var ts TimeSeries
	ts.Add(10, 1)
	ts.Add(5, 2) // out of order: clamps to t=10
	if ts.Times[1] != 10 {
		t.Fatalf("backward time not clamped: %v", ts.Times)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	var ts TimeSeries
	if ts.Len() != 0 {
		t.Fatal("empty series must report zeros")
	}
}
