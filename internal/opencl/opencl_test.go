package opencl

import (
	"math"
	"strings"
	"testing"

	"poly/internal/pattern"
)

const lstmSrc = `
# ASR-style two-kernel program
program asr
latency_bound 200

kernel lstm
  in  x f32[1024]
  in  w f32[1024x256]
  gather   g1(w)
  map      m1(x g1, func=mac ops=2 elems=1024)
  reduce   r1(m1, func=add assoc elems=256)
  map      m2(r1, func=sigmoid ops=4)
  pipeline p1(m2, funcs=[mul:1 add:1 tanh:4])
  out p1

kernel fc
  in  h f32[256]
  map  m1(h, func=mac ops=2)
  out  m1

edge lstm -> fc bytes=1024
`

func TestParseFullProgram(t *testing.T) {
	prog, err := Parse(lstmSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "asr" || prog.LatencyBoundMS != 200 {
		t.Fatalf("program header = %q/%v", prog.Name, prog.LatencyBoundMS)
	}
	if len(prog.Kernels()) != 2 {
		t.Fatalf("kernels = %d", len(prog.Kernels()))
	}
	lstm := prog.Kernel("lstm")
	if lstm == nil {
		t.Fatal("lstm kernel missing")
	}
	if lstm.Patterns.Len() != 5 {
		t.Fatalf("lstm has %d patterns, want 5", lstm.Patterns.Len())
	}
	m1 := lstm.Patterns.Node("m1")
	if m1 == nil || m1.Kind != pattern.Map || m1.Elems != 1024 {
		t.Fatalf("m1 = %+v", m1)
	}
	if len(m1.Funcs) != 1 || m1.Funcs[0].Name != "mac" || m1.Funcs[0].Ops != 2 {
		t.Fatalf("m1 funcs = %+v", m1.Funcs)
	}
	r1 := lstm.Patterns.Node("r1")
	if !r1.Funcs[0].Associative {
		t.Fatal("assoc flag lost")
	}
	p1 := lstm.Patterns.Node("p1")
	if p1.Kind != pattern.Pipeline || len(p1.Funcs) != 3 || p1.Funcs[2].Ops != 4 {
		t.Fatalf("p1 = %+v", p1)
	}
	// g1→m1 edge must exist with g1's output volume; x is a buffer, no edge.
	if got := len(lstm.Patterns.Preds("m1")); got != 1 {
		t.Fatalf("m1 preds = %d, want 1 (buffer deps are not PPG edges)", got)
	}
	// Element inheritance: m2 inherits 256 from r1.
	if m2 := lstm.Patterns.Node("m2"); m2.Elems != 256 {
		t.Fatalf("m2 elems = %d, want inherited 256", m2.Elems)
	}
	edges := prog.Edges()
	if len(edges) != 1 || edges[0].Bytes != 1024 || edges[0].From != "lstm" {
		t.Fatalf("edges = %+v", edges)
	}
}

func TestParseDefaultsAndInference(t *testing.T) {
	src := `
program p
kernel k1
  in x f32[64]
  map m(x, func=add ops=1)
kernel k2
  in y f32[32]
  map m(y, func=add ops=1)
edge k1 -> k2
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.LatencyBoundMS != 200 {
		t.Fatalf("default latency bound = %v, want 200", prog.LatencyBoundMS)
	}
	k1 := prog.Kernel("k1")
	if len(k1.Outputs) != 1 || k1.Outputs[0] != "m" {
		t.Fatalf("default outputs = %v, want sink pattern", k1.Outputs)
	}
	// Default edge volume = producer OutputBytes (64 elems × 4 bytes).
	if prog.Edges()[0].Bytes != 256 {
		t.Fatalf("default edge bytes = %d, want 256", prog.Edges()[0].Bytes)
	}
}

func TestParseTilingAndStencil(t *testing.T) {
	src := `
program p
kernel k
  in img u8[64x64x3]
  tiling  t(img, size=[8 8 1] count=[8 8 3] elem=u8)
  stencil s(t, func=conv ops=9 taps=9)
  out s
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("k")
	tl := k.Patterns.Node("t")
	if tl.TileSize != [3]int{8, 8, 1} || tl.TileCount != [3]int{8, 8, 3} {
		t.Fatalf("tile geometry = %v/%v", tl.TileSize, tl.TileCount)
	}
	if tl.ElemBytes != 1 {
		t.Fatalf("elem=u8 not applied: %d", tl.ElemBytes)
	}
	if tl.Elems != 64*64*3 {
		t.Fatalf("tiling elems = %d", tl.Elems)
	}
	s := k.Patterns.Node("s")
	if s.StencilTaps != 9 {
		t.Fatalf("taps = %d", s.StencilTaps)
	}
	if s.TotalOps() != int64(64*64*3)*9*9 {
		t.Fatalf("stencil ops = %d", s.TotalOps())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no program", "kernel k\n", "program statement must come first"},
		{"dup program", "program a\nprogram b\n", "duplicate program"},
		{"bad bound", "program a\nlatency_bound zero\n", "latency_bound"},
		{"NaN bound", "program a\nlatency_bound NaN\n", "latency_bound"},
		{"infinite bound", "program a\nlatency_bound +Infms\n", "latency_bound"},
		{"in outside kernel", "program a\nin x f32[4]\n", "outside kernel"},
		{"bad buffer spec", "program a\nkernel k\nin x f32{4}\n", "f32[64x64]"},
		{"bad type", "program a\nkernel k\nin x f99[4]\n", "unknown data type"},
		{"bad dim", "program a\nkernel k\nin x f32[0]\n", "bad dimension"},
		{"unknown kind", "program a\nkernel k\nin x f32[4]\nfrobnicate f(x)\n", "unknown pattern kind"},
		{"unknown dep", "program a\nkernel k\nin x f32[4]\nmap m(zz, func=f ops=1)\n", "unknown name"},
		{"missing elems", "program a\nkernel k\nmap m(, func=f ops=1)\nout m\n", "needs elems="},
		{"unknown attr", "program a\nkernel k\nin x f32[4]\nmap m(x, func=f wat=1)\n", "unknown attribute"},
		{"unknown flag", "program a\nkernel k\nin x f32[4]\nmap m(x, func=f wat)\n", "unknown flag"},
		{"bad edge syntax", "program a\nkernel k\nin x f32[4]\nmap m(x, func=f)\nedge k k\n", "edge syntax"},
		{"edge to missing", "program a\nkernel k\nin x f32[4]\nmap m(x, func=f)\nedge k -> nope\n", "unknown kernel"},
		{"bad funcs", "program a\nkernel k\nin x f32[4]\npipeline p(x, funcs=bad)\n", "bracketed"},
		{"empty funcs", "program a\nkernel k\nin x f32[4]\npipeline p(x, funcs=[])\n", "empty"},
		{"bad triple", "program a\nkernel k\nin x f32[4]\ntiling t(x, size=[1 2 3 4])\n", "triple"},
		{"dup instance", "program a\nkernel k\nin x f32[4]\nmap m(x, func=f)\nmap m(x, func=f)\n", "duplicate"},
		{"no kernels", "program a\n", "no kernels"},
		{"empty src", "", "no program"},
		{"dup buffer", "program a\nkernel k\nin x f32[4]\nin x f32[4]\nmap m(x, func=f)\n", "duplicate buffer"},
		{"bad out", "program a\nkernel k\nin x f32[4]\nmap m(x, func=f)\nout nope\n", "not a pattern instance"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse accepted bad input")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestParseErrorsIncludeLineNumbers(t *testing.T) {
	_, err := Parse("program a\nkernel k\nin x f32[4]\nbogus b(x)\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error should name line 4: %v", err)
	}
}

func TestMustParsePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic on bad source")
		}
	}()
	MustParse("nonsense")
}

func TestBufferGeometry(t *testing.T) {
	b := Buffer{Name: "w", Type: Float32, Dims: []int{64, 32}}
	if b.Elems() != 2048 || b.Bytes() != 8192 {
		t.Fatalf("elems/bytes = %d/%d", b.Elems(), b.Bytes())
	}
	if got := b.String(); got != "w f32[64x32]" {
		t.Fatalf("String = %q", got)
	}
	u := Buffer{Name: "img", Type: UInt8, Dims: []int{10}}
	if u.Bytes() != 10 {
		t.Fatalf("u8 bytes = %d", u.Bytes())
	}
}

func TestDataTypeRoundTrip(t *testing.T) {
	for _, d := range []DataType{Float32, Float64, Int32, UInt8} {
		got, err := ParseDataType(d.String())
		if err != nil || got != d {
			t.Fatalf("round trip %v: %v %v", d, got, err)
		}
		if d.Size() <= 0 {
			t.Fatalf("size of %v = %d", d, d.Size())
		}
	}
	if !strings.Contains(DataType(99).String(), "99") {
		t.Fatal("unknown type should format its number")
	}
}

func TestProgramTopoSortAndCycle(t *testing.T) {
	prog, err := Parse(lstmSrc)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := prog.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(topo) != 2 || topo[0] != "lstm" {
		t.Fatalf("topo = %v", topo)
	}
	if err := prog.Connect("fc", "lstm", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestProgramAdjacency(t *testing.T) {
	prog := MustParse(lstmSrc)
	if len(prog.Succs("lstm")) != 1 || len(prog.Preds("fc")) != 1 {
		t.Fatal("kernel adjacency wrong")
	}
	if len(prog.Succs("fc")) != 0 || len(prog.Preds("lstm")) != 0 {
		t.Fatal("kernel adjacency wrong at ends")
	}
}

func TestProgramValidateRejectsBadPieces(t *testing.T) {
	p := NewProgram("", 200)
	if err := p.Validate(); err == nil {
		t.Fatal("empty name accepted")
	}
	p = NewProgram("x", 0)
	k := &Kernel{Name: "k", Patterns: pattern.NewGraph(), Outputs: []string{"m"}}
	in := &pattern.Instance{Name: "m", Kind: pattern.Map, Elems: 4, Funcs: []pattern.Func{{Name: "f", Ops: 1}}}
	if err := k.Patterns.Add(in); err != nil {
		t.Fatal(err)
	}
	if err := p.AddKernel(k); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Fatal("non-positive latency bound accepted")
	}
	for _, bound := range []float64{math.NaN(), math.Inf(1)} {
		p.LatencyBoundMS = bound
		if err := p.Validate(); err == nil {
			t.Fatalf("latency bound %v accepted", bound)
		}
	}
	if err := p.Connect("k", "k", 4); err == nil {
		t.Fatal("self edge accepted")
	}
	if err := p.AddKernel(k); err == nil {
		t.Fatal("duplicate kernel accepted")
	}
}

func TestKernelIOBytes(t *testing.T) {
	prog := MustParse(lstmSrc)
	lstm := prog.Kernel("lstm")
	wantIn := int64(1024*4 + 1024*256*4)
	if lstm.InputBytes() != wantIn {
		t.Fatalf("InputBytes = %d, want %d", lstm.InputBytes(), wantIn)
	}
	// Output p1 inherits 256 elems × 4 bytes.
	if lstm.OutputBytes() != 1024 {
		t.Fatalf("OutputBytes = %d, want 1024", lstm.OutputBytes())
	}
	if lstm.Input("x") == nil || lstm.Input("nope") != nil {
		t.Fatal("Input lookup wrong")
	}
}

func TestParseConstAndRepeat(t *testing.T) {
	src := `
program p
kernel k
  repeat 1500
  const w f32[1024x256]
  in    x f32[1024]
  map m(x w, func=mac ops=2)
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("k")
	if k.Invocations() != 1500 {
		t.Fatalf("repeat = %d", k.Invocations())
	}
	if k.ConstBytes() != 1024*256*4 {
		t.Fatalf("const bytes = %d", k.ConstBytes())
	}
	if k.RequestBytes() != 1024*4 {
		t.Fatalf("request bytes = %d", k.RequestBytes())
	}
	if !k.Input("w").Const || k.Input("x").Const {
		t.Fatal("const flags wrong")
	}
}

func TestParseRepeatErrors(t *testing.T) {
	for _, src := range []string{
		"program p\nrepeat 5\n",
		"program p\nkernel k\nrepeat 0\nin x f32[4]\nmap m(x, func=f)\n",
		"program p\nkernel k\nrepeat\nin x f32[4]\nmap m(x, func=f)\n",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("bad repeat accepted: %q", src)
		}
	}
}

func TestKernelDefaultInvocations(t *testing.T) {
	k := &Kernel{}
	if k.Invocations() != 1 {
		t.Fatalf("default invocations = %d", k.Invocations())
	}
}

// FuzzParse checks that Parse never panics and that every program it
// accepts is whole: it passes Validate and orders every kernel exactly
// once under TopoSort. The seed corpus holds the six compiled-in
// applications' sources, the package-doc example and malformed
// annotations.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("accepted program fails Validate: %v", err)
		}
		order, err := prog.TopoSort()
		if err != nil {
			t.Fatalf("accepted program fails TopoSort: %v", err)
		}
		seen := make(map[string]bool, len(order))
		for _, name := range order {
			if seen[name] || prog.Kernel(name) == nil {
				t.Fatalf("TopoSort order %v repeats or invents kernel %q", order, name)
			}
			seen[name] = true
		}
		if len(order) != len(prog.Kernels()) {
			t.Fatalf("TopoSort ordered %d of %d kernels", len(order), len(prog.Kernels()))
		}
	})
}
