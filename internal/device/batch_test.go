package device

import (
	"reflect"
	"testing"

	"poly/internal/sim"
)

// traceLaunches installs a launch hook on g recording (size, cap) per
// launch and returns the log.
func traceLaunches(g *GPUDevice) *[][2]int {
	var log [][2]int
	g.onLaunch = func(batch, cap int) {
		log = append(log, [2]int{batch, cap})
	}
	return &log
}

// TestGPUWidestCapMergesBatchOneHead: a batch-1 variant at the head must
// not cap the launch when a batched variant of the same kernel is queued
// behind it — both share one launch at the wider capacity.
func TestGPUWidestCapMergesBatchOneHead(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	log := traceLaunches(g)
	g.Submit(gpuTask("narrow", 10, 1, nil))
	g.Submit(gpuTask("wide", 10, 8, nil))
	s.Run()
	if want := [][2]int{{2, 8}}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("launches = %v, want %v", *log, want)
	}
	l, tasks, _ := g.Launches()
	if l != 1 || tasks != 2 {
		t.Fatalf("launch accounting = %d launches / %d tasks, want 1/2", l, tasks)
	}
}

// TestGPUWidestCapReservesJustifier: with more batch-1 work queued ahead
// than the launch can carry, the task justifying the wide capacity must
// still be IN the launch — otherwise eight batch-1 tasks would ship as an
// 8-wide launch of a variant whose physical limit is one. The expected
// shape is one 8-wide launch containing the wide task plus seven narrow
// ones, then the two leftover narrows as capacity-1 singles.
func TestGPUWidestCapReservesJustifier(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	log := traceLaunches(g)
	var wideDone sim.Time
	var firstDone sim.Time
	for i := 0; i < 9; i++ {
		g.Submit(gpuTask("narrow", 10, 1, func(at sim.Time) {
			if firstDone == 0 {
				firstDone = at
			}
		}))
	}
	g.Submit(gpuTask("wide", 10, 8, func(at sim.Time) { wideDone = at }))
	s.Run()
	if want := [][2]int{{8, 8}, {1, 1}, {1, 1}}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("launches = %v, want %v", *log, want)
	}
	// Membership proof: the wide task completed with the first launch, not
	// after the narrow backlog drained.
	if wideDone != firstDone {
		t.Fatalf("cap-justifying task finished at %v, first launch at %v — it was not in the launch it justified",
			wideDone, firstDone)
	}
}

// TestGPUBatchOneOnlyStaysSingle: without any batched variant queued, the
// widest-cap scan must not invent capacity — batch-1 tasks serialize as
// singles.
func TestGPUBatchOneOnlyStaysSingle(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	log := traceLaunches(g)
	for i := 0; i < 3; i++ {
		g.Submit(gpuTask("narrow", 10, 1, nil))
	}
	s.Run()
	if want := [][2]int{{1, 1}, {1, 1}, {1, 1}}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("launches = %v, want %v", *log, want)
	}
}

// TestGPUWidestCapInterleaved: alternating batch-1-head / batched-tail
// submissions across several queue generations — each drain must justify
// its capacity with an in-launch member.
func TestGPUWidestCapInterleaved(t *testing.T) {
	s := sim.New()
	g := NewGPU(s, "gpu0", AMDW9100)
	log := traceLaunches(g)
	g.Submit(gpuTask("narrow", 10, 1, nil))
	g.Submit(gpuTask("wide", 10, 4, nil))
	g.Submit(gpuTask("narrow", 10, 1, nil))
	g.Submit(gpuTask("narrow", 10, 1, nil))
	s.Run()
	// One 4-wide launch: narrow head + wide justifier + two more narrows.
	if want := [][2]int{{4, 4}}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("launches = %v, want %v", *log, want)
	}
	for _, l := range *log {
		if l[0] > l[1] {
			t.Fatalf("launch of %d exceeded its capacity %d", l[0], l[1])
		}
	}
}
