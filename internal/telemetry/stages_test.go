package telemetry

import (
	"math"
	"math/rand"
	"testing"

	"poly/internal/sim"
)

// checkStageSum asserts the package invariant: the canonical stage sum
// reproduces LatencyMS bit-exactly (not approximately — the exposition
// promises an operator that the breakdown accounts for every last ULP
// of the end-to-end latency).
func checkStageSum(t *testing.T, sp *Span) {
	t.Helper()
	if got, want := sp.Stages.SumMS(), sp.LatencyMS; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("stage sum %v (bits %x) != latency %v (bits %x); breakdown %+v",
			got, math.Float64bits(got), want, math.Float64bits(want), sp.Stages)
	}
}

// TestComputeStagesTable covers the attribution rules case by case:
// overlap priority (exec > transfer > retry), failed-attempt exclusion,
// hold passthrough, and the bit-exact remainder — including awkward
// non-representable float layouts.
func TestComputeStagesTable(t *testing.T) {
	type kern struct {
		queued, start, end float64
		retried            bool
		retryFrom          float64
	}
	// Runtime float64 arithmetic (not Go's exact constant arithmetic), so
	// the expectations carry the same rounding the sweep sees.
	awkStart := 0.1
	awkEnd := awkStart + 0.2
	cases := []struct {
		name      string
		latency   float64
		hold      float64
		kernels   []kern
		transfers []Interval
		exec      float64
		transfer  float64
		retry     float64
	}{
		{
			name:    "empty span is all queue",
			latency: 10.5,
		},
		{
			name:    "single kernel",
			latency: 12,
			kernels: []kern{{queued: 0, start: 2, end: 7}},
			exec:    5,
		},
		{
			name:    "overlapping kernels count the union once",
			latency: 20,
			kernels: []kern{
				{queued: 0, start: 2, end: 8},
				{queued: 0, start: 5, end: 11},
			},
			exec: 9, // [2,11), not 6+6
		},
		{
			name:    "disjoint kernels add",
			latency: 20,
			kernels: []kern{
				{queued: 0, start: 1, end: 3},
				{queued: 3, start: 6, end: 10},
			},
			exec: 6,
		},
		{
			name:      "transfer fully inside exec attributes to exec",
			latency:   15,
			kernels:   []kern{{queued: 0, start: 2, end: 10}},
			transfers: []Interval{{StartMS: 4, EndMS: 6}},
			exec:      8,
			transfer:  0,
		},
		{
			name:      "transfer partially overlapping exec keeps its tail",
			latency:   15,
			kernels:   []kern{{queued: 0, start: 2, end: 6}},
			transfers: []Interval{{StartMS: 5, EndMS: 9}},
			exec:      4,
			transfer:  3, // [6,9)
		},
		{
			name:      "pure transfer",
			latency:   8,
			transfers: []Interval{{StartMS: 1, EndMS: 4}},
			transfer:  3,
		},
		{
			name:    "retry window between failure and restart",
			latency: 30,
			kernels: []kern{
				{queued: 0, start: 2, end: 5},
				{queued: 5, start: 12, end: 18, retried: true, retryFrom: 5}, // failed at 5, restarted at 12
			},
			exec:  9, // [2,5) + [12,18)
			retry: 7, // [5,12)
		},
		{
			name:    "retry window under concurrent exec attributes to exec",
			latency: 30,
			kernels: []kern{
				{queued: 0, start: 2, end: 14},
				{queued: 5, start: 12, end: 18, retried: true, retryFrom: 5},
			},
			exec:  16, // union [2,18)
			retry: 0,  // [5,12) covered by the first kernel
		},
		{
			name:    "failed attempt (end<=start) is excluded",
			latency: 10,
			kernels: []kern{
				{queued: 0, start: 4, end: 4}, // board lost the task
				{queued: 4, start: 6, end: 9},
			},
			exec: 3,
		},
		{
			name:    "hold passes through",
			latency: 25,
			hold:    3.5,
			kernels: []kern{{queued: 3.5, start: 5, end: 9}},
			exec:    4,
		},
		{
			name:    "awkward floats still sum bit-exactly",
			latency: awkEnd + 0.30000000000000004,
			kernels: []kern{{queued: 0, start: awkStart, end: awkEnd}},
			exec:    awkEnd - awkStart,
		},
		{
			name:    "latency smaller than coverage yields negative queue remainder",
			latency: 3,
			kernels: []kern{{queued: 0, start: 0, end: 5}},
			exec:    5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := &Span{LatencyMS: tc.latency, HoldMS: tc.hold}
			for _, k := range tc.kernels {
				rec := sp.AddKernel("k", "dev", "impl", k.queued)
				rec.StartMS, rec.EndMS = k.start, k.end
				rec.Retried, rec.RetryFromMS = k.retried, k.retryFrom
			}
			for _, tr := range tc.transfers {
				sp.AddTransfer(tr.StartMS, tr.EndMS)
			}
			sp.ComputeStages()
			if sp.Stages.HoldMS != tc.hold {
				t.Fatalf("hold = %v, want %v", sp.Stages.HoldMS, tc.hold)
			}
			if sp.Stages.ExecMS != tc.exec {
				t.Fatalf("exec = %v, want %v", sp.Stages.ExecMS, tc.exec)
			}
			if sp.Stages.TransferMS != tc.transfer {
				t.Fatalf("transfer = %v, want %v", sp.Stages.TransferMS, tc.transfer)
			}
			if sp.Stages.RetryMS != tc.retry {
				t.Fatalf("retry = %v, want %v", sp.Stages.RetryMS, tc.retry)
			}
			checkStageSum(t, sp)
		})
	}
}

// stageInput decodes fuzz bytes; reads past the end return zero.
type stageInput struct {
	b []byte
	i int
}

func (in *stageInput) byte() byte {
	if in.i >= len(in.b) {
		return 0
	}
	in.i++
	return in.b[in.i-1]
}

// frac returns a value in [0, 1] with 16 bits of resolution.
func (in *stageInput) frac() float64 {
	return float64(uint16(in.byte())<<8|uint16(in.byte())) / math.MaxUint16
}

// checkStages decodes up to eight physically-shaped spans from data —
// the contract the runtime provides: staging hold first, then kernel,
// transfer and retry intervals inside the rest of the request's
// [0, latency] window — and finishes each through a recorder whose
// one-slot ring recycles them, the way serving does. Latencies span
// decades (~0.02 ms to ~3 s) with fuzzed low mantissa bits to stress
// the ULP correction at every magnitude. Every finished span must have
// stages summing bit-exactly to LatencyMS, no negative or NaN stage
// (the queue remainder may sit below zero by rounding only), and
// stages equal to a fresh span's; a dropped span's stages stay zero.
func checkStages(t *testing.T, data []byte) {
	in := &stageInput{b: data}
	r := NewWithOptions(Options{SpanRingCap: 1})
	for n := 0; n < 8 && in.i < len(in.b); n++ {
		sp := r.StartSpan(0, 100)
		latency := math.Exp(in.frac()*12 - 4)
		latency = math.Float64frombits(math.Float64bits(latency) ^ uint64(in.byte()))
		if in.byte()%50 == 0 {
			latency = 0 // instantaneously-completed request
		}
		sp.LatencyMS = latency
		sp.HoldMS = in.frac() * 0.1 * latency
		within := func() (float64, float64) {
			a := sp.HoldMS + in.frac()*(latency-sp.HoldMS)
			b := sp.HoldMS + in.frac()*(latency-sp.HoldMS)
			return min(a, b, latency), min(max(a, b), latency)
		}
		for k := in.byte() % 6; k > 0; k-- {
			s, e := within()
			if in.byte()%10 == 0 {
				e = s // failed attempt: the board lost the task
			}
			ks := sp.AddKernel("k", "dev", "impl", sp.HoldMS+in.frac()*(s-sp.HoldMS))
			ks.StartMS, ks.EndMS = s, e
			if in.byte()%3 == 0 {
				ks.Retried = true
				ks.RetryFromMS = sp.HoldMS + in.frac()*(s-sp.HoldMS)
			}
		}
		for k := in.byte() % 3; k > 0; k-- {
			sp.AddTransfer(within())
		}
		sp.Dropped = in.byte()%8 == 0
		r.FinishSpan(sp, sim.Time(latency))

		if sp.Dropped {
			if sp.Stages != (StageBreakdown{}) {
				t.Fatalf("span %d: dropped span has stages %+v", n, sp.Stages)
			}
			continue
		}
		checkStageSum(t, sp)
		for i := 0; i < NumStages; i++ {
			v := sp.Stages.Get(i)
			if i == StageQueue && v >= -1e-12*latency {
				continue
			}
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("span %d: stage %s = %v (latency %v)", n, StageNames[i], v, latency)
			}
		}
		fresh := &Span{LatencyMS: sp.LatencyMS, HoldMS: sp.HoldMS, Transfers: sp.Transfers}
		for _, k := range sp.Kernels {
			kc := *k
			fresh.Kernels = append(fresh.Kernels, &kc)
		}
		fresh.ComputeStages()
		for i := 0; i < NumStages; i++ {
			if a, b := sp.Stages.Get(i), fresh.Stages.Get(i); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("span %d: recycled stage %s = %v, fresh span's %v", n, StageNames[i], a, b)
			}
		}
	}
}

// TestComputeStagesRandomized hammers the ULP-correction path with
// checkStages on random bytes: 1000 inputs of up to eight spans each.
func TestComputeStagesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 512)
	for iter := 0; iter < 1000; iter++ {
		rng.Read(data)
		checkStages(t, data)
	}
}

// FuzzComputeStages runs checkStages on fuzzed bytes. The seed corpus
// in testdata/fuzz replays on every go test.
func FuzzComputeStages(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x80\x00\x01\x07\x40\x00\x10\x00\xff\xff\x05\x20\x00\x60\x00\x01\x30\x00\x40\x00\x00\x02\x10\x00\x90\x00\x01\x01"))
	f.Fuzz(checkStages)
}
