package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"poly/internal/device"
	"poly/internal/dse"
	"poly/internal/model"
	"poly/internal/opencl"
	"poly/internal/opt"
)

// The oracles below are the cold planner's former Step 1.5/2: every trial
// replays the whole priority order from a fresh copy of the initial
// device states, and every swap candidate is ranked by a full per-board
// scan of the frontier. The planner's checkpointed, bound-pruned trials
// and its memoized flat-table ranking must reproduce them bit for bit.

// resimulateOracle rebuilds the placement with the kernel at pinKi moved
// to cand, replaying every kernel from a fresh copy of base into dst.
func resimulateOracle(s *Scheduler, src, dst *planState, base []DeviceState, pinKi int32, cand swapCandidate) {
	devs := append([]DeviceState(nil), base...)
	dst.reset(len(s.knames))
	for _, ki := range s.orderIdx {
		im, di := src.slab[ki].Impl, src.pos[ki]
		if ki == pinKi {
			im, di = cand.impl, cand.dev
		}
		if im == nil {
			continue
		}
		dev := &devs[di]
		est := s.estMS(ki, di, dst)
		if avail := dev.availableAt(im); avail > est {
			est = avail
		}
		dst.slab[ki] = Assignment{Kernel: s.knames[ki], Impl: im, Device: dev.Name,
			StartMS: est, EndMS: est + dev.groupExecMS(im, s.batchN),
			ExecMS:   im.LatencyMS / dev.freq(),
			CommitMS: dev.commitMS(im, batchCap(im))}
		dst.pos[ki] = di
		commit(&dst.slab[ki], dev)
	}
	s.tally(dst)
}

// rankedSwapsOracle ranks Step-2 candidates by scanning each board's
// candidates in full.
func rankedSwapsOracle(s *Scheduler, st *planState, devices []DeviceState, boundMS float64) []rankedSwap {
	var out []rankedSwap
	for p, ki := range s.orderIdx {
		a := &st.slab[ki]
		if a.Impl == nil {
			continue
		}
		kernel := s.knames[ki]
		cur, curT := a.Impl, a.ExecMS
		for di := range devices {
			d := &devices[di]
			if d.FreeAtMS > 0.2*boundMS {
				continue
			}
			cands := s.candidatesIdx(ki, d.Class)
			if res := resident(kernel, d); res != nil {
				cands = []*model.Impl{res}
			} else if evicts(kernel, d) {
				continue
			}
			var best rankedSwap
			found := false
			for _, im := range cands {
				if im == cur {
					continue
				}
				newT := im.LatencyMS / d.freq()
				curE := s.perRequestEnergyMJ(cur, curT)
				newE := s.perRequestEnergyMJ(im, newT)
				if curE-newE <= 0 {
					continue
				}
				we := (cur.PowerW - im.PowerW) * (newT - curT)
				if !found || we > best.we {
					found = true
					best = rankedSwap{p: int32(p), kernel: kernel, we: we,
						swapCandidate: swapCandidate{impl: im, dev: int32(di)}}
				}
			}
			if found {
				out = append(out, best)
			}
		}
	}
	slices.SortFunc(out, func(a, b rankedSwap) int {
		if a.we != b.we {
			if a.we > b.we {
				return -1
			}
			return 1
		}
		if a.kernel != b.kernel {
			return strings.Compare(a.kernel, b.kernel)
		}
		return strings.Compare(devices[a.dev].Name, devices[b.dev].Name)
	})
	return out
}

// replayedKernels derives, from the oracle's full replay ref of a trial
// pinned at position p, what the checkpointed trial under padMS and
// limitMS must do: the kernels it replays (the placed ones from p on, up
// to and including the first whose EndMS+padMS exceeds limitMS) and
// whether it completes.
func replayedKernels(s *Scheduler, ref *planState, p int, padMS, limitMS float64) (n int, completes bool) {
	for _, ki := range s.orderIdx[p:] {
		a := &ref.slab[ki]
		if a.Impl == nil {
			continue
		}
		n++
		if a.EndMS+padMS > limitMS {
			return n, false
		}
	}
	return n, true
}

// oracleCounts are the work counters the checkpointed planner must
// reproduce, derived from the oracle's full replays: trials run and
// kernels replayed, in total and for the repair rounds alone.
type oracleCounts struct {
	trials, kernels             int
	repairTrials, repairKernels int
}

// scheduleOracle is the former cold planner end to end: Step 1, then
// repair and energy rounds whose trials all run resimulateOracle and
// are all scored, none stopped early. It returns the plan and the
// counters the planner must match. A nil plan means Step 1 found no
// placement.
func scheduleOracle(s *Scheduler, devices []DeviceState, boundMS float64) (*Plan, oracleCounts) {
	if boundMS <= 0 {
		boundMS = s.prog.LatencyBoundMS
	}
	s.resid.resolve(devices)
	base := s.resid.copyResolved(nil, devices)
	work := append([]DeviceState(nil), base...)
	var cur, trial, best planState
	cur.reset(len(s.knames))
	for _, ki := range s.orderIdx {
		if s.placeEFT(ki, work, &cur) != nil {
			return nil, oracleCounts{}
		}
	}
	s.tally(&cur)
	var c oracleCounts

	for round := 0; round < 16 && cur.makespanMS > boundMS; round++ {
		bestFound := false
		bestScore := math.Inf(1)
		for p, ki := range s.orderIdx {
			a := &cur.slab[ki]
			if a.Impl == nil {
				continue
			}
			kernel := s.knames[ki]
			for di := range base {
				d := &base[di]
				all := s.candidatesIdx(ki, d.Class)
				if len(all) == 0 {
					continue
				}
				cands := all[:1]
				if d.Class == device.GPU {
					cands = s.gpuCandsIdx[ki]
				}
				if res := resident(kernel, d); res != nil {
					cands = []*model.Impl{res}
				} else if evicts(kernel, d) {
					continue
				}
				for _, im := range cands {
					if im == a.Impl && d.Name == a.Device {
						continue
					}
					resimulateOracle(s, &cur, &trial, base, ki, swapCandidate{impl: im, dev: int32(di)})
					pad := d.commitMS(im, batchCap(im))
					n, _ := replayedKernels(s, &trial, p, pad, bestScore)
					c.repairTrials++
					c.repairKernels += n
					score := trial.makespanMS + pad
					if !bestFound || score < bestScore {
						bestFound = true
						bestScore = score
						best.copyFrom(&trial)
					}
				}
			}
		}
		if !bestFound || best.makespanMS >= cur.makespanMS {
			break
		}
		cur.copyFrom(&best)
	}

	c.trials, c.kernels = c.repairTrials, c.repairKernels
	swaps := 0
	if boundMS-cur.makespanMS > 0 && !s.tpMode {
		for round := 0; round < 64; round++ {
			ranked := rankedSwapsOracle(s, &cur, base, boundMS)
			accepted := false
			effBound := boundMS * s.slack
			if effBound < cur.makespanMS {
				effBound = cur.makespanMS
			}
			for _, sw := range ranked {
				resimulateOracle(s, &cur, &trial, base, s.orderIdx[sw.p], sw.swapCandidate)
				n, _ := replayedKernels(s, &trial, int(sw.p), 0, effBound)
				c.trials++
				c.kernels += n
				if trial.makespanMS > effBound || trial.energyMJ >= cur.energyMJ {
					continue
				}
				cur.copyFrom(&trial)
				swaps++
				accepted = true
				break
			}
			if !accepted {
				break
			}
		}
	}
	return newPlan(cur.slab, boundMS, cur.makespanMS, cur.energyMJ, swaps), c
}

// statesBitIdentical reports how two placements differ, or "".
func statesBitIdentical(a, b *planState) string {
	f64 := math.Float64bits
	if f64(a.makespanMS) != f64(b.makespanMS) || f64(a.energyMJ) != f64(b.energyMJ) {
		return fmt.Sprintf("totals (%v, %v) vs (%v, %v)", a.makespanMS, a.energyMJ, b.makespanMS, b.energyMJ)
	}
	for ki := range a.slab {
		x, y := &a.slab[ki], &b.slab[ki]
		if x.Kernel != y.Kernel || x.Impl != y.Impl || x.Device != y.Device ||
			f64(x.StartMS) != f64(y.StartMS) || f64(x.EndMS) != f64(y.EndMS) ||
			f64(x.ExecMS) != f64(y.ExecMS) || f64(x.CommitMS) != f64(y.CommitMS) ||
			a.pos[ki] != b.pos[ki] {
			return fmt.Sprintf("kernel %d: %+v@%d vs %+v@%d", ki, *x, a.pos[ki], *y, b.pos[ki])
		}
	}
	return ""
}

// fuzzInput reads a fuzz input as a stream of bytes, zero past its end.
type fuzzInput struct {
	b []byte
	i int
}

func (in *fuzzInput) byte() byte {
	if in.i >= len(in.b) {
		return 0
	}
	in.i++
	return in.b[in.i-1]
}

// intn returns a value in [0, n).
func (in *fuzzInput) intn(n int) int { return int(in.byte()) % n }

// fuzzPlanner builds a random program, frontier and node from in: up to
// six kernels in a random DAG, up to three GPU and three FPGA
// implementations per kernel (batched GPU variants, pipelined FPGA
// ones), and up to seven boards with backlogs, DVFS scales and blank,
// resident, evicting or foreign FPGA bitstreams.
func fuzzPlanner(t *testing.T, in *fuzzInput) (*Scheduler, []DeviceState, float64) {
	t.Helper()
	nk := 1 + in.intn(6)
	bound := 20 + float64(in.byte())*2
	var src strings.Builder
	fmt.Fprintf(&src, "program fz\nlatency_bound %g\n", bound)
	for k := 0; k < nk; k++ {
		fmt.Fprintf(&src, "kernel k%d\n  in x f32[64]\n  map m(x, func=add ops=1 elems=64)\n  out m\n", k)
	}
	for i := 0; i < nk; i++ {
		for j := i + 1; j < nk; j++ {
			if in.byte()%3 == 0 {
				fmt.Fprintf(&src, "edge k%d -> k%d bytes=%d\n", i, j, int(in.byte())<<14)
			}
		}
	}
	prog, err := opencl.Parse(src.String())
	if err != nil {
		t.Fatalf("generated program: %v\n%s", err, src.String())
	}
	ks := &dse.KernelSpaces{GPU: map[string]*dse.Space{}, FPGA: map[string]*dse.Space{}}
	var fpgaImpls []*model.Impl
	for k := 0; k < nk; k++ {
		name := fmt.Sprintf("k%d", k)
		ng, nf := in.intn(4), in.intn(4)
		if ng+nf == 0 {
			ng = 1
		}
		for c, n := range [2]int{ng, nf} {
			class := device.Class(c)
			sp := &dse.Space{Kernel: name, Class: class, Board: class.String()}
			for j := 0; j < n; j++ {
				lat := 0.5 + float64(in.byte())/4
				im := &model.Impl{Kernel: name, Platform: class, Board: sp.Board,
					ID:            fmt.Sprintf("%s|%s|%d", name, sp.Board, j),
					LatencyMS:     lat,
					IntervalMS:    lat * float64(1+in.intn(4)) / 4,
					PowerW:        5 + float64(in.byte()),
					ThroughputRPS: 1 + float64(in.byte()),
					Config:        opt.Config{Platform: class, Batch: 1}}
				if class == device.GPU {
					im.Config.Batch = []int{1, 1, 4, 16}[in.intn(4)]
				} else {
					fpgaImpls = append(fpgaImpls, im)
				}
				sp.Pareto = append(sp.Pareto, im)
			}
			slices.SortStableFunc(sp.Pareto, func(a, b *model.Impl) int {
				return cmp.Compare(a.LatencyMS, b.LatencyMS)
			})
			if n > 0 {
				if class == device.GPU {
					ks.GPU[name] = sp
				} else {
					ks.FPGA[name] = sp
				}
			}
		}
	}
	s, err := New(prog, ks)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlanCacheCapacity(0)
	s.SetLoadHint(float64(in.byte()) * 2)
	s.SetBatchSize(1 + in.intn(3))
	s.SetSlackFactor(0.3 + float64(in.byte())/255*0.7)
	s.SetThroughputMode(in.byte()%8 == 7)

	nd := 1 + in.intn(7)
	devs := make([]DeviceState, nd)
	for i := range devs {
		d := &devs[i]
		d.Name = fmt.Sprintf("d%d", i)
		d.Class = device.Class(in.intn(2))
		if b := in.byte(); b%4 != 0 {
			d.FreeAtMS = float64(b) * bound / 512
		}
		d.FreqScale = []float64{1, 1, 0, 0.5, 0.8, 1.25}[in.intn(6)]
		if d.Class == device.FPGA {
			d.ReconfigMS = []float64{0, 20, 80}[in.intn(3)]
			switch b := in.byte(); {
			case b%4 == 1 && len(fpgaImpls) > 0:
				d.LoadedImpl = fpgaImpls[int(b/4)%len(fpgaImpls)].ID
			case b%4 == 2:
				d.LoadedImpl = "foreign|bitstream"
			}
		}
	}
	return s, devs, bound
}

// FuzzPlannerTrial checks the cold planner against its full-replay
// oracles on random programs, frontiers and nodes: whole plans and work
// counters against scheduleOracle, then, from Step 1's placement, random
// pinned trials in both callers' shapes (Step 2's: no pad; repair's: a
// commit pad, and limits that may sit below cur's makespan) against
// resimulateOracle, and the ranked swap list against rankedSwapsOracle,
// accepting random trials on the way. A trial must stop exactly where
// the oracle's replay first crosses the limit, a stopped trial's oracle
// must score past the limit, and a completed trial must match the oracle
// bit for bit (slab, positions, makespan and energy).
func FuzzPlannerTrial(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x03\x40\x00\x01\x00\x02\x00\x03\x10\x20\x30\x01\x02\x50\x60\x70\x02\x01\x80\x20\x40\x05\x01\x03\x00\x10\x03\x01\x05\x30\x01\x40\x02"))
	f.Add([]byte("\x05\x90\x00\x02\x03\x00\x03\x01\x03\x02\x03\x04\x03\x40\x20\x10\x80\x02\x03\x33\x66\x99\x01\x11\x22\x33\x02\x44\x55\x66\x00\x06\x01\x05\x0d\x02\x09\x01\x00\x05\x00\x03\x01\x00\x04\x01\x12\x02\x06\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		s, devs, bound := fuzzPlanner(t, in)

		trials0, kernels0 := s.TrialStats()
		got, gotErr := s.Schedule(devs, bound)
		trials, kernels := s.TrialStats()
		want, wantC := scheduleOracle(s, devs, bound)
		if (gotErr != nil) != (want == nil) {
			t.Fatalf("planner error %v, oracle plan %v", gotErr, want)
		}
		if want == nil {
			return
		}
		plansBitIdentical(t, "plan", got, want)
		if trials-trials0 != wantC.trials || kernels-kernels0 != wantC.kernels {
			t.Fatalf("planner ran %d trials replaying %d kernels, oracle %d replaying %d",
				trials-trials0, kernels-kernels0, wantC.trials, wantC.kernels)
		}

		s.resid.resolve(devs)
		base := s.baseCopy(devs)
		work := append([]DeviceState(nil), base...)
		var cur, dst, ref planState
		cur.reset(len(s.knames))
		for _, ki := range s.orderIdx {
			if err := s.placeEFT(ki, work, &cur); err != nil {
				t.Fatal(err)
			}
		}
		s.tally(&cur)
		s.checkpoint(&cur, base)
		for step, n := 0, 1+in.intn(16); step < n; step++ {
			rankedSwapsMatch(t, s, &cur, base, bound)

			p := in.intn(len(s.orderIdx))
			ki := s.orderIdx[p]
			di := int32(in.intn(len(base)))
			cands := s.candidatesIdx(ki, base[di].Class)
			if len(cands) == 0 {
				continue
			}
			cand := swapCandidate{impl: cands[in.intn(len(cands))], dev: di}
			resimulateOracle(s, &cur, &ref, base, ki, cand)
			pad := 0.0
			if b := in.byte(); b%2 == 1 {
				pad = float64(b) / 16
			}
			edge := ref.makespanMS + pad
			var limit float64
			switch in.intn(6) {
			case 0:
				limit = math.Inf(1)
			case 1:
				limit = edge
			case 2:
				limit = math.Nextafter(edge, math.Inf(-1))
			case 3:
				limit = cur.makespanMS
			case 4:
				limit = cur.makespanMS + float64(in.byte())/8
			default:
				limit = cur.makespanMS * float64(in.byte()) / 256
			}
			_, k0 := s.TrialStats()
			ok := s.trial(&cur, &dst, p, cand, pad, limit)
			_, k1 := s.TrialStats()
			wantN, wantOK := replayedKernels(s, &ref, p, pad, limit)
			if ok != wantOK || k1-k0 != wantN {
				t.Fatalf("step %d: trial pinned at %d (pad %v, limit %v) returned %v after %d kernels; oracle %v after %d",
					step, p, pad, limit, ok, k1-k0, wantOK, wantN)
			}
			if !ok {
				if !(edge > limit) {
					t.Fatalf("step %d: trial pinned at %d stopped under limit %v, but the oracle scores %v",
						step, p, limit, edge)
				}
				continue
			}
			if diff := statesBitIdentical(&dst, &ref); diff != "" {
				t.Fatalf("step %d: trial pinned at %d differs from oracle: %s", step, p, diff)
			}
			if pad == 0 && limit >= cur.makespanMS && ref.makespanMS > limit {
				t.Fatalf("step %d: Step-2 trial pinned at %d completed past limit %v: oracle makespan %v",
					step, p, limit, ref.makespanMS)
			}
			if in.byte()%3 == 0 {
				cur.copyFrom(&dst)
				s.checkpoint(&cur, base)
			}
		}
	})
}

// rankedSwapsMatch checks the planner's ranked swap list on st against
// the full-scan oracle's.
func rankedSwapsMatch(t *testing.T, s *Scheduler, st *planState, devices []DeviceState, boundMS float64) {
	t.Helper()
	got := s.rankedSwaps(st, devices, boundMS)
	want := rankedSwapsOracle(s, st, devices, boundMS)
	if len(got) != len(want) {
		t.Fatalf("ranked %d swaps, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.p != w.p || g.kernel != w.kernel || g.impl != w.impl || g.dev != w.dev ||
			math.Float64bits(g.we) != math.Float64bits(w.we) {
			t.Fatalf("swap %d: %+v, oracle %+v", i, g, w)
		}
	}
}

// TestTrialCountersMatchOracle pins the claim on a fixed device sequence
// over the ASR program: the planner's plans, trial counts and kernels
// replayed equal what the full-replay oracle derives, while the kernels
// replayed per trial fall below the oracle's (every kernel, every trial).
func TestTrialCountersMatchOracle(t *testing.T) {
	s, prog, _ := buildSched(t)
	s.SetPlanCacheCapacity(0)
	nk := len(prog.Kernels())
	devs := steadyDevices(s)
	trials0, kernels0 := s.TrialStats()
	var repair oracleCounts
	for i := 0; i < 200; i++ {
		// A deterministic walk over backlogs, DVFS points and load hints
		// that visits plans with no slack, plans that repair and plans
		// that swap.
		for d := range devs {
			devs[d].FreeAtMS = float64((i*7+d*13)%41) * 1.5
		}
		devs[0].FreqScale = []float64{1, 0.8, 1.25}[i%3]
		devs[2].FreqScale = []float64{1, 0.8}[i/3%2]
		s.SetLoadHint(float64(10 + i%5*20))
		bound := []float64{0, 60, 120, 400}[i%4]
		trialsBefore, kernelsBefore := s.TrialStats()
		got, err := s.Schedule(devs, bound)
		if err != nil {
			t.Fatal(err)
		}
		trialsAfter, kernelsAfter := s.TrialStats()
		want, c := scheduleOracle(s, devs, bound)
		plansBitIdentical(t, fmt.Sprintf("step %d", i), got, want)
		if trialsAfter-trialsBefore != c.trials || kernelsAfter-kernelsBefore != c.kernels {
			t.Fatalf("step %d: %d trials replaying %d kernels, oracle %d replaying %d",
				i, trialsAfter-trialsBefore, kernelsAfter-kernelsBefore, c.trials, c.kernels)
		}
		repair.repairTrials += c.repairTrials
		repair.repairKernels += c.repairKernels
	}
	trials, kernels := s.TrialStats()
	trials, kernels = trials-trials0, kernels-kernels0
	if trials == 0 || repair.repairTrials == 0 {
		t.Fatalf("the sequence reached %d trials, %d of them repairs", trials, repair.repairTrials)
	}
	perTrial := float64(kernels) / float64(trials)
	t.Logf("%d trials; %.2f kernels replayed per trial (oracle %d); %d repair trials, %.2f kernels each",
		trials, perTrial, nk, repair.repairTrials, float64(repair.repairKernels)/float64(repair.repairTrials))
	if perTrial >= float64(nk) {
		t.Fatalf("%.2f kernels replayed per trial, no fewer than the oracle's %d", perTrial, nk)
	}
}
