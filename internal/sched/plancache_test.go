package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"poly/internal/device"
)

// scheduleOnce plans against devs and reports whether the call hit the
// plan cache, by differencing the scheduler's counters around the call.
func scheduleOnce(t *testing.T, s *Scheduler, devs []DeviceState, boundMS float64) (*Plan, bool) {
	t.Helper()
	h0, _ := s.PlanCacheStats()
	p, err := s.Schedule(devs, boundMS)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := s.PlanCacheStats()
	return p, h1 > h0
}

// TestPlanCacheKeying drives every signature dimension the cache keys on:
// identical state must hit, and each mode/state mutation must miss (a new
// key) without corrupting earlier entries — mode changes are folded into
// the key, never flushed.
func TestPlanCacheKeying(t *testing.T) {
	cases := []struct {
		name string
		// mutate perturbs the scheduler or the device vector after the
		// cache is primed with the base state.
		mutate  func(s *Scheduler, devs []DeviceState)
		wantHit bool
	}{
		{"identical state hits", func(s *Scheduler, devs []DeviceState) {}, true},
		{"throughput mode keys", func(s *Scheduler, devs []DeviceState) {
			s.SetThroughputMode(true)
		}, false},
		{"slack factor keys", func(s *Scheduler, devs []DeviceState) {
			s.SetSlackFactor(0.3)
		}, false},
		{"load hint keys", func(s *Scheduler, devs []DeviceState) {
			s.SetLoadHint(80)
		}, false},
		{"load hint quantizes to whole RPS", func(s *Scheduler, devs []DeviceState) {
			s.SetLoadHint(40.2) // same bucket as the primed hint of 40
		}, true},
		{"device backlog keys", func(s *Scheduler, devs []DeviceState) {
			devs[0].FreeAtMS += 0.25
		}, false},
		{"DVFS scale keys", func(s *Scheduler, devs []DeviceState) {
			devs[0].FreqScale = 0.75
		}, false},
		{"bitstream residency keys", func(s *Scheduler, devs []DeviceState) {
			devs[1].LoadedImpl = ""
		}, false},
		{"reconfig penalty keys", func(s *Scheduler, devs []DeviceState) {
			devs[1].ReconfigMS *= 2
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _ := buildSched(t)
			s.SetLoadHint(40)
			devs := steadyDevices(s)
			if _, hit := scheduleOnce(t, s, devs, 0); hit {
				t.Fatal("first call against an empty cache must miss")
			}
			tc.mutate(s, devs)
			if _, hit := scheduleOnce(t, s, devs, 0); hit != tc.wantHit {
				t.Fatalf("after mutation: hit=%v, want %v", hit, tc.wantHit)
			}
			// The primed base entry must survive the mutation: restore the
			// base state and require a hit (keyed, not flushed).
			s2, _, _ := buildSched(t)
			s2.SetLoadHint(40)
			base := steadyDevices(s2)
			if _, hit := scheduleOnce(t, s, base, 0); !hit {
				t.Fatal("base-state entry was lost after an unrelated mutation")
			}
		})
	}
}

// TestPlanCacheBoundKeying checks the latency bound participates in the
// key, including the ≤0 → program-default normalization happening before
// keying (so 0 and the explicit default share one entry).
func TestPlanCacheBoundKeying(t *testing.T) {
	s, prog, _ := buildSched(t)
	devs := steadyDevices(s)
	if _, hit := scheduleOnce(t, s, devs, 0); hit {
		t.Fatal("first call must miss")
	}
	if _, hit := scheduleOnce(t, s, devs, prog.LatencyBoundMS); !hit {
		t.Fatal("explicit default bound must share the normalized-0 entry")
	}
	if _, hit := scheduleOnce(t, s, devs, prog.LatencyBoundMS/2); hit {
		t.Fatal("a different bound must be a different key")
	}
}

// TestPlanCacheClearsWhenFull fills a capacity-2 cache with two distinct
// signatures and checks that the third insert empties it first: the cache
// then holds only the new entry, and both earlier keys miss.
func TestPlanCacheClearsWhenFull(t *testing.T) {
	s, _, _ := buildSched(t)
	s.SetPlanCacheCapacity(2)
	devs := steadyDevices(s)

	for _, f := range []float64{0, 1} {
		devs[0].FreeAtMS = f
		if _, hit := scheduleOnce(t, s, devs, 0); hit {
			t.Fatalf("priming FreeAtMS=%v must miss", f)
		}
	}
	devs[0].FreeAtMS = 0
	if _, hit := scheduleOnce(t, s, devs, 0); !hit {
		t.Fatal("state 0 should be cached")
	}
	if n := s.PlanCacheLen(); n != 2 {
		t.Fatalf("cache holds %d entries after two inserts, want 2", n)
	}
	// Insert state 2 into the full cache: it is cleared, then holds state 2.
	devs[0].FreeAtMS = 2
	if _, hit := scheduleOnce(t, s, devs, 0); hit {
		t.Fatal("state 2 was never planned")
	}
	if n := s.PlanCacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries after overflowing, want 1", n)
	}
	if _, hit := scheduleOnce(t, s, devs, 0); !hit {
		t.Fatal("state 2 was inserted after the clear and must hit")
	}
	// State 1 misses and is re-inserted; state 0 then finds the cache
	// full again (states 2 and 1) and misses too.
	for _, f := range []float64{1, 0} {
		devs[0].FreeAtMS = f
		if _, hit := scheduleOnce(t, s, devs, 0); hit {
			t.Fatalf("state %v was cleared and must miss", f)
		}
	}
}

// TestPlanCacheMatchesModel runs randomized scripts of lookups and
// memoized plans against the cache and a reference model at every
// capacity from 1 to 64: a key set that an insert empties when it finds
// it full, plus the miss-streak rule, under which a memo miss is cached
// only while the misses since the last hit number at most missStreak, or
// on every missReadmit-th miss after that. Every call must hit exactly
// when the model holds the key and return the plan cached under it, a
// memo miss must run the cold planner once, and Len must equal the
// model's size after every step. Each script interleaves bursts of
// never-repeating keys long enough to cross the streak threshold, after
// which the recurring keys hit again and end the streak.
func TestPlanCacheMatchesModel(t *testing.T) {
	for capacity := 1; capacity <= 64; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := newPlanCache(capacity)
		model := map[string]*Plan{}
		streak, longest, clears := 0, 0, 0
		keySpace := 2*capacity + 3
		burst, fresh := 0, 0
		// Bursts of never-repeating keys start at fixed steps.
		for step := 0; step < 6000; step++ {
			if step%1500 == 1000 {
				burst = missStreak + missReadmit + rng.Intn(3*missReadmit)
			}
			k := fmt.Sprintf("key-%d", rng.Intn(keySpace))
			if burst > 0 {
				burst--
				fresh++
				k = fmt.Sprintf("fresh-%d", fresh)
			}
			cached, want := model[k]
			if want {
				streak = 0
			} else {
				streak++
				longest = max(longest, streak)
			}
			var got *Plan
			if burst > 0 || rng.Intn(3) == 0 {
				colds := 0
				var err error
				got, err = c.memo([]byte(k), func() (*Plan, error) {
					colds++
					return &Plan{EnergySwaps: step}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if (colds == 0) != want || colds > 1 {
					t.Fatalf("capacity %d step %d: memo(%s) ran %d cold plans, model hit=%v", capacity, step, k, colds, want)
				}
				if !want && (streak <= missStreak || (streak-missStreak)%missReadmit == 0) {
					if len(model) == capacity {
						clear(model)
						clears++
					}
					model[k] = got
				}
			} else if got = c.get([]byte(k)); (got != nil) != want {
				t.Fatalf("capacity %d step %d: get(%s) hit=%v, model says %v", capacity, step, k, got != nil, want)
			}
			if want && got != cached {
				t.Fatalf("capacity %d step %d: %s returned a plan it did not cache", capacity, step, k)
			}
			if c.Len() != len(model) {
				t.Fatalf("capacity %d step %d: Len() = %d, model holds %d", capacity, step, c.Len(), len(model))
			}
		}
		if longest <= missStreak+missReadmit {
			t.Fatalf("capacity %d: longest miss streak %d never reached a re-admission past the threshold", capacity, longest)
		}
		if clears == 0 {
			t.Fatalf("capacity %d: the script never filled the cache", capacity)
		}
	}
}

// TestPlanCacheDisabled checks capacity ≤ 0 turns the cache off entirely.
func TestPlanCacheDisabled(t *testing.T) {
	s, _, _ := buildSched(t)
	s.SetPlanCacheCapacity(0)
	devs := steadyDevices(s)
	for i := 0; i < 3; i++ {
		if _, err := s.Schedule(devs, 0); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := s.PlanCacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled cache recorded hits=%d misses=%d", h, m)
	}
	if n := s.PlanCacheLen(); n != 0 {
		t.Fatalf("disabled cache holds %d entries", n)
	}
}

// TestPlanCacheHitIsSharedImmutable checks the zero-copy contract: every
// hit aliases the single sealed plan, with the pre-sorted order pointing
// into the plan's own assignments.
func TestPlanCacheHitIsSharedImmutable(t *testing.T) {
	s, _, _ := buildSched(t)
	devs := steadyDevices(s)
	first, _ := scheduleOnce(t, s, devs, 0)
	second, hit := scheduleOnce(t, s, devs, 0)
	if !hit {
		t.Fatal("second call must hit")
	}
	if first != second {
		t.Fatal("hits must be zero-copy: same *Plan for the same signature")
	}
	if !second.Sealed() {
		t.Fatal("cached plan must be sealed")
	}
	// The sealed plan carries its pre-sorted order, consistent with its
	// own assignment structs.
	ord := second.Order()
	if len(ord) != len(second.Assignments) {
		t.Fatalf("order has %d entries, want %d", len(ord), len(second.Assignments))
	}
	for _, a := range ord {
		if second.Assignment(a.Kernel) != a {
			t.Fatalf("order entry %q does not point at the plan's own assignment", a.Kernel)
		}
	}
}

// plansBitIdentical fails the test unless a and b agree in every field the
// runtime reads, bit for bit.
func plansBitIdentical(t *testing.T, label string, a, b *Plan) {
	t.Helper()
	f64 := math.Float64bits
	if f64(a.MakespanMS) != f64(b.MakespanMS) || f64(a.EnergyMJ) != f64(b.EnergyMJ) ||
		f64(a.BoundMS) != f64(b.BoundMS) || a.EnergySwaps != b.EnergySwaps {
		t.Fatalf("%s: plan summaries differ:\n  %+v\n  %+v", label, a, b)
	}
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("%s: %d vs %d assignments", label, len(a.Assignments), len(b.Assignments))
	}
	for i := range a.Assignments {
		x, y := &a.Assignments[i], &b.Assignments[i]
		if x.Kernel != y.Kernel || x.Impl != y.Impl || x.Device != y.Device ||
			f64(x.StartMS) != f64(y.StartMS) || f64(x.EndMS) != f64(y.EndMS) ||
			f64(x.ExecMS) != f64(y.ExecMS) || f64(x.CommitMS) != f64(y.CommitMS) {
			t.Fatalf("%s: kernel %q differs:\n  %+v\n  %+v", label, x.Kernel, x, y)
		}
	}
	ao, bo := a.Order(), b.Order()
	for i := range ao {
		if ao[i].Kernel != bo[i].Kernel {
			t.Fatalf("%s: order diverges at %d: %q vs %q", label, i, ao[i].Kernel, bo[i].Kernel)
		}
	}
}

// TestScheduleCachedMatchesUncached replays a deterministic series of
// device states — with backlog drift, mode toggles, slack retuning, DVFS
// changes, and residency churn — through a cached and an uncached
// scheduler, requiring bit-identical plans at every step. This is the
// memoization soundness contract: a hit must be indistinguishable from a
// cold planning run.
func TestScheduleCachedMatchesUncached(t *testing.T) {
	cached, _, _ := buildSched(t)
	cold, _, _ := buildSched(t)
	cold.SetPlanCacheCapacity(0)

	devsA := steadyDevices(cached)
	devsB := steadyDevices(cold)

	for step := 0; step < 400; step++ {
		// Deterministic, repeating perturbations. The periods share
		// factors (the composite state cycles every 16 steps), so the
		// cache sees each signature many times — like a governor settling
		// into a small set of operating points.
		backlog := float64(step%8) * 0.5
		devsA[0].FreeAtMS, devsB[0].FreeAtMS = backlog, backlog
		if step == 200 {
			devsA[1].LoadedImpl, devsB[1].LoadedImpl = "", ""
		}
		tp := step%16 >= 12
		cached.SetThroughputMode(tp)
		cold.SetThroughputMode(tp)
		slack := 0.6 - float64(step%4)*0.1
		cached.SetSlackFactor(slack)
		cold.SetSlackFactor(slack)
		load := float64(20 + step%2*40)
		cached.SetLoadHint(load)
		cold.SetLoadHint(load)
		scale := 1.0
		if step%16 >= 8 {
			scale = 0.8
		}
		devsA[0].FreqScale, devsB[0].FreqScale = scale, scale

		pa, err := cached.Schedule(devsA, 0)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := cold.Schedule(devsB, 0)
		if err != nil {
			t.Fatal(err)
		}
		plansBitIdentical(t, "step", pa, pb)
	}
	h, m := cached.PlanCacheStats()
	if h == 0 {
		t.Fatal("the repeating series never hit the cache")
	}
	if float64(h)/float64(h+m) < 0.5 {
		t.Fatalf("hit rate %.2f below 0.5 on a repeating series (hits=%d misses=%d)",
			float64(h)/float64(h+m), h, m)
	}
}

// TestStaticCachedMatchesUncached is the same soundness contract for the
// baseline planner, whose key is just (bound, devices).
func TestStaticCachedMatchesUncached(t *testing.T) {
	_, prog, ks := buildSched(t)
	mk := func() *StaticPlanner {
		sp, err := NewStatic(prog, ks, device.FPGA, StaticAuto)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	cachedSP, coldSP := mk(), mk()
	coldSP.SetPlanCacheCapacity(0)
	devs := settingIDevices()
	for step := 0; step < 100; step++ {
		for i := 1; i < len(devs); i++ {
			devs[i].FreeAtMS = float64((step + i) % 4)
		}
		pa, err := cachedSP.Schedule(devs, 0)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := coldSP.Schedule(devs, 0)
		if err != nil {
			t.Fatal(err)
		}
		plansBitIdentical(t, "static step", pa, pb)
	}
	if h, _ := cachedSP.PlanCacheStats(); h == 0 {
		t.Fatal("static planner never hit its cache on a repeating series")
	}
}

// TestImplIDsInterned asserts interning coverage: every implementation the
// DSE publishes carries a precomputed ID equal to the canonical rendering,
// so ImplID on the planning hot path is a pure field read.
func TestImplIDsInterned(t *testing.T) {
	s, prog, ks := buildSched(t)
	seen := 0
	for _, k := range prog.Kernels() {
		for _, class := range []device.Class{device.GPU, device.FPGA} {
			sp := ks.Space(k.Name, class)
			if sp == nil {
				continue
			}
			for _, im := range sp.Feasible {
				seen++
				want := im.Kernel + "|" + im.Board + "|" + im.Config.String()
				if im.ID == "" {
					t.Fatalf("%s %s impl %s not interned", k.Name, class, want)
				}
				if im.ID != want {
					t.Fatalf("interned ID %q != canonical %q", im.ID, want)
				}
				if got := ImplID(im); got != want {
					t.Fatalf("ImplID returned %q, want %q", got, want)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no implementations inspected")
	}
	// The scheduler's identity index must round-trip every frontier impl
	// to the same pointer: commit keeps a board's resolved residency as
	// the placed impl itself, and availableAt and sameImpl compare that
	// pointer, which matches comparing IDs only if IDs are unique across
	// the design spaces.
	for _, k := range prog.Kernels() {
		for _, class := range []device.Class{device.GPU, device.FPGA} {
			if sp := ks.Space(k.Name, class); sp != nil {
				for _, im := range sp.Pareto {
					if got := s.ImplByID(ImplID(im)); got != im {
						t.Fatalf("ImplByID(%q) = %p, want the frontier impl %p", ImplID(im), got, im)
					}
				}
			}
		}
	}
}

// TestScheduleAllocs counts allocations on both planning paths: a hit
// allocates nothing, and once a miss streak passes missStreak a miss
// allocates only the plan it publishes (the Plan and its assignment
// array). Counts, unlike timings, cannot move with runner noise.
func TestScheduleAllocs(t *testing.T) {
	s, _, _ := buildSched(t)
	s.SetLoadHint(40)
	devs := steadyDevices(s)
	schedule := func() {
		if _, err := s.Schedule(devs, 0); err != nil {
			t.Fatal(err)
		}
	}
	schedule() // cache the steady state
	if n := testing.AllocsPerRun(100, schedule); n != 0 {
		t.Fatalf("a plan-cache hit allocated %v times, want 0", n)
	}
	step := 0
	miss := func() {
		step++
		devs[0].FreeAtMS = float64(step) * 1e-3 // never repeats
		schedule()
	}
	for step < missStreak {
		miss()
	}
	// AllocsPerRun adds one warm-up call; stop short of the next
	// re-admitted miss, which also copies its key into the cache.
	if n := testing.AllocsPerRun(missReadmit-2, miss); n > 2 {
		t.Fatalf("a bypassed miss allocated %v times, want at most 2 (the published plan)", n)
	}
}
