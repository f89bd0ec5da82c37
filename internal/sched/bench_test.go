package sched

import (
	"testing"

	"poly/internal/device"
)

// steadyDevices models the node state a mid-load steady phase presents
// over and over: one warm GPU and five FPGAs holding provisioned
// bitstreams, with a small repeating backlog on the GPU.
func steadyDevices(s *Scheduler) []DeviceState {
	devs := settingIDevices()
	kernels := s.Program().Kernels()
	for i := 1; i < len(devs) && i-1 < len(kernels); i++ {
		if im := s.PreferredFPGAImpl(kernels[i-1].Name); im != nil {
			devs[i].LoadedImpl = ImplID(im)
		}
	}
	devs[0].FreeAtMS = 3.5
	return devs
}

// BenchmarkSchedule measures one full two-step planning call against a
// repeating steady-state node — the exact shape the plan cache fast-paths.
func BenchmarkSchedule(b *testing.B) {
	s, _, _ := buildSched(b)
	s.SetLoadHint(40)
	devs := steadyDevices(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(devs, 0); err != nil {
			b.Fatal(err)
		}
	}
	h, m := s.PlanCacheStats()
	if h+m > 0 {
		b.ReportMetric(float64(h)/float64(h+m), "hitRate")
	}
}

// BenchmarkScheduleUncached is the same call with the plan cache disabled:
// the planner's raw two-step cost, tracking the scratch-buffer reuse and
// impl-ID interning wins independently of memoization.
func BenchmarkScheduleUncached(b *testing.B) {
	s, _, _ := buildSched(b)
	s.SetLoadHint(40)
	s.SetPlanCacheCapacity(0)
	devs := steadyDevices(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(devs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleChurn drives the planner with a device state that never
// repeats (worst case for the cache): every iteration is a miss, so this
// bounds the overhead the cache layer adds to cold planning. It reports
// the Step 1.5/2 trials per plan and the kernels they replayed, which are
// exact counts that runner noise cannot move.
func BenchmarkScheduleChurn(b *testing.B) {
	s, _, _ := buildSched(b)
	s.SetLoadHint(40)
	devs := steadyDevices(s)
	trials0, kernels0 := s.TrialStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		devs[0].FreeAtMS = float64(i%100000) * 1e-3
		if _, err := s.Schedule(devs, 0); err != nil {
			b.Fatal(err)
		}
	}
	trials, kernels := s.TrialStats()
	b.ReportMetric(float64(trials-trials0)/float64(b.N), "trials/plan")
	b.ReportMetric(float64(kernels-kernels0)/float64(b.N), "trialKernels/plan")
}

var _ = device.GPU
