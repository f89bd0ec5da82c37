package opencl

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"poly/internal/pattern"
)

// Parse reads a program written in Poly's annotation language and returns
// its IR. The language is line-oriented:
//
//	# comment
//	program asr
//	latency_bound 200
//
//	kernel lstm
//	  in  x f32[1024]
//	  in  w f32[1024x256]
//	  gather   g1(w)
//	  map      m1(x g1, func=mac ops=2)
//	  reduce   r1(m1, func=add assoc)
//	  pipeline p1(r1, funcs=[mul:1 tanh:4])
//	  out p1
//
//	edge lstm -> fc bytes=4096
//
// Pattern statements are `<kind> <name>(<deps>, <attrs>)` where deps are
// space-separated buffer or instance names and attrs are `key=value`
// pairs or bare flags (assoc, custom, irregular). Instance element counts
// default to the first dependency's; `elems=N` overrides. Pipeline stages
// come from `funcs=[name:ops ...]`; Stencil takes `taps=N`; Tiling takes
// `size=[x y z]` and `count=[X Y Z]`.
func Parse(src string) (*Program, error) {
	p := &parser{}
	return p.parse(src)
}

// MustParse is Parse that panics on error; intended for the compiled-in
// application definitions, which are validated by tests.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	prog    *Program
	bound   float64
	name    string
	kernel  *kernelBuilder
	pending []pendingEdge
}

type pendingEdge struct {
	line     int
	from, to string
	bytes    int64 // -1 means "default to producer output bytes"
}

// kernelBuilder accumulates one kernel block before validation.
type kernelBuilder struct {
	line    int
	k       *Kernel
	elems   map[string]int // producer name (buffer or instance) → elems
	outSeen bool
}

func (p *parser) parse(src string) (*Program, error) {
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		lineNo := i + 1
		line := raw
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := p.statement(lineNo, fields, line); err != nil {
			return nil, err
		}
	}
	if err := p.finishKernel(); err != nil {
		return nil, err
	}
	if p.prog == nil {
		if p.name == "" {
			return nil, fmt.Errorf("opencl: parse: no program statement")
		}
		if err := p.ensureProgram(len(lines)); err != nil {
			return nil, err
		}
	}
	for _, e := range p.pending {
		bytes := e.bytes
		if bytes < 0 {
			from := p.prog.Kernel(e.from)
			if from == nil {
				return nil, fmt.Errorf("opencl: parse line %d: unknown kernel %q in edge", e.line, e.from)
			}
			bytes = from.OutputBytes()
		}
		if err := p.prog.Connect(e.from, e.to, bytes); err != nil {
			return nil, fmt.Errorf("opencl: parse line %d: %v", e.line, err)
		}
	}
	if err := p.prog.Validate(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

func (p *parser) statement(lineNo int, fields []string, line string) error {
	switch fields[0] {
	case "program":
		if len(fields) != 2 {
			return parseErr(lineNo, "program takes exactly one name")
		}
		if p.name != "" {
			return parseErr(lineNo, "duplicate program statement")
		}
		p.name = fields[1]
		return nil
	case "latency_bound":
		if len(fields) != 2 {
			return parseErr(lineNo, "latency_bound takes one value (ms)")
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "ms"), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return parseErr(lineNo, "latency_bound must be a positive, finite number of milliseconds")
		}
		p.bound = v
		return nil
	case "kernel":
		if len(fields) != 2 {
			return parseErr(lineNo, "kernel takes exactly one name")
		}
		if err := p.finishKernel(); err != nil {
			return err
		}
		if err := p.ensureProgram(lineNo); err != nil {
			return err
		}
		p.kernel = &kernelBuilder{
			line:  lineNo,
			k:     &Kernel{Name: fields[1], Patterns: pattern.NewGraph()},
			elems: make(map[string]int),
		}
		return nil
	case "in", "const":
		if p.kernel == nil {
			return parseErr(lineNo, fields[0]+" outside kernel block")
		}
		return p.kernel.input(lineNo, fields[1:], fields[0] == "const")
	case "repeat":
		if p.kernel == nil {
			return parseErr(lineNo, "repeat outside kernel block")
		}
		if len(fields) != 2 {
			return parseErr(lineNo, "repeat takes one positive integer")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 1 {
			return parseErr(lineNo, "repeat takes one positive integer")
		}
		p.kernel.k.Repeat = n
		return nil
	case "out":
		if p.kernel == nil {
			return parseErr(lineNo, "out outside kernel block")
		}
		if len(fields) < 2 {
			return parseErr(lineNo, "out requires at least one instance name")
		}
		p.kernel.k.Outputs = append(p.kernel.k.Outputs, fields[1:]...)
		p.kernel.outSeen = true
		return nil
	case "edge":
		if err := p.finishKernel(); err != nil {
			return err
		}
		if err := p.ensureProgram(lineNo); err != nil {
			return err
		}
		return p.edge(lineNo, fields[1:])
	default:
		if p.kernel == nil {
			return parseErr(lineNo, fmt.Sprintf("unexpected statement %q outside kernel block", fields[0]))
		}
		return p.kernel.instance(lineNo, line)
	}
}

func (p *parser) ensureProgram(lineNo int) error {
	if p.prog != nil {
		return nil
	}
	if p.name == "" {
		return parseErr(lineNo, "program statement must come first")
	}
	bound := p.bound
	if bound == 0 {
		bound = 200 // the paper's default QoS target
	}
	p.prog = NewProgram(p.name, bound)
	return nil
}

func (p *parser) finishKernel() error {
	if p.kernel == nil {
		return nil
	}
	kb := p.kernel
	p.kernel = nil
	if !kb.outSeen {
		// Default: every sink pattern is an output.
		kb.k.Outputs = kb.k.Patterns.Sinks()
	}
	if err := p.prog.AddKernel(kb.k); err != nil {
		return fmt.Errorf("opencl: parse line %d: %v", kb.line, err)
	}
	return nil
}

func (p *parser) edge(lineNo int, fields []string) error {
	// Syntax: edge A -> B [bytes=N]
	if len(fields) < 3 || fields[1] != "->" {
		return parseErr(lineNo, "edge syntax is: edge FROM -> TO [bytes=N]")
	}
	e := pendingEdge{line: lineNo, from: fields[0], to: fields[2], bytes: -1}
	for _, f := range fields[3:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k != "bytes" {
			return parseErr(lineNo, fmt.Sprintf("unknown edge attribute %q", f))
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return parseErr(lineNo, "bytes must be a non-negative integer")
		}
		e.bytes = n
	}
	p.pending = append(p.pending, e)
	return nil
}

func (kb *kernelBuilder) input(lineNo int, fields []string, isConst bool) error {
	// Syntax: in NAME TYPE[dim1xdim2...] — or const for weights.
	if len(fields) != 2 {
		return parseErr(lineNo, "in syntax is: in NAME TYPE[dims]")
	}
	name := fields[0]
	spec := fields[1]
	open := strings.IndexByte(spec, '[')
	if open < 0 || !strings.HasSuffix(spec, "]") {
		return parseErr(lineNo, fmt.Sprintf("buffer spec %q must look like f32[64x64]", spec))
	}
	dt, err := ParseDataType(spec[:open])
	if err != nil {
		return parseErr(lineNo, err.Error())
	}
	var dims []int
	for _, d := range strings.Split(spec[open+1:len(spec)-1], "x") {
		n, err := strconv.Atoi(d)
		if err != nil || n <= 0 {
			return parseErr(lineNo, fmt.Sprintf("bad dimension %q", d))
		}
		dims = append(dims, n)
	}
	b := Buffer{Name: name, Type: dt, Dims: dims, Const: isConst}
	kb.k.Inputs = append(kb.k.Inputs, b)
	kb.elems[name] = b.Elems()
	return nil
}

func (kb *kernelBuilder) instance(lineNo int, line string) error {
	// Syntax: KIND NAME(dep1 dep2 ..., key=val flag ...)
	line = strings.TrimSpace(line)
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		return parseErr(lineNo, fmt.Sprintf("cannot parse pattern statement %q", line))
	}
	kind, err := pattern.ParseKind(line[:sp])
	if err != nil {
		return parseErr(lineNo, err.Error())
	}
	rest := strings.TrimSpace(line[sp:])
	open := strings.IndexByte(rest, '(')
	if open <= 0 || !strings.HasSuffix(rest, ")") {
		return parseErr(lineNo, fmt.Sprintf("pattern statement needs NAME(...): %q", line))
	}
	name := rest[:open]
	body := rest[open+1 : len(rest)-1]

	depPart, attrPart, _ := strings.Cut(body, ",")
	deps := strings.Fields(depPart)

	inst := &pattern.Instance{Name: name, Kind: kind, ElemBytes: 4}
	if kind == pattern.Stencil {
		inst.StencilTaps = 1
	}
	if err := kb.attrs(lineNo, inst, attrPart); err != nil {
		return err
	}

	for _, d := range deps {
		if _, ok := kb.elems[d]; !ok {
			return parseErr(lineNo, fmt.Sprintf("pattern %q depends on unknown name %q", name, d))
		}
	}

	// Element count defaults to the first dependency's.
	if inst.Elems == 0 {
		for _, d := range deps {
			if n, ok := kb.elems[d]; ok {
				inst.Elems = n
				break
			}
		}
	}
	if inst.Elems == 0 {
		return parseErr(lineNo, fmt.Sprintf("pattern %q needs elems= or a sized dependency", name))
	}
	if err := kb.k.Patterns.Add(inst); err != nil {
		return parseErr(lineNo, err.Error())
	}
	kb.elems[name] = inst.Elems

	for _, d := range deps {
		if kb.k.Input(d) != nil {
			continue // buffer read, not a PPG edge
		}
		prod := kb.k.Patterns.Node(d)
		if prod == nil {
			return parseErr(lineNo, fmt.Sprintf("pattern %q depends on unknown name %q", name, d))
		}
		if err := kb.k.Patterns.Connect(d, name, prod.OutputBytes()); err != nil {
			return parseErr(lineNo, err.Error())
		}
	}
	return nil
}

func (kb *kernelBuilder) attrs(lineNo int, inst *pattern.Instance, attrPart string) error {
	var fn pattern.Func
	fnSet := false
	for _, f := range splitAttrs(attrPart) {
		key, val, hasVal := strings.Cut(f, "=")
		switch key {
		case "assoc":
			fn.Associative = true
			fnSet = true
		case "custom":
			fn.Custom = true
			fnSet = true
		case "irregular":
			inst.Irregular = true
		case "func":
			fn.Name = val
			fnSet = true
		case "ops":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return parseErr(lineNo, "ops must be a non-negative integer")
			}
			fn.Ops = n
			fnSet = true
		case "elems":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return parseErr(lineNo, "elems must be a positive integer")
			}
			inst.Elems = n
		case "elem":
			dt, err := ParseDataType(val)
			if err != nil {
				return parseErr(lineNo, err.Error())
			}
			inst.ElemBytes = dt.Size()
		case "taps":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return parseErr(lineNo, "taps must be a positive integer")
			}
			inst.StencilTaps = n
		case "funcs":
			stages, err := parseFuncList(val)
			if err != nil {
				return parseErr(lineNo, err.Error())
			}
			inst.Funcs = append(inst.Funcs, stages...)
		case "size":
			v, err := parseTriple(val)
			if err != nil {
				return parseErr(lineNo, err.Error())
			}
			inst.TileSize = v
		case "count":
			v, err := parseTriple(val)
			if err != nil {
				return parseErr(lineNo, err.Error())
			}
			inst.TileCount = v
		default:
			if !hasVal {
				return parseErr(lineNo, fmt.Sprintf("unknown flag %q", key))
			}
			return parseErr(lineNo, fmt.Sprintf("unknown attribute %q", key))
		}
	}
	if fnSet {
		if fn.Ops == 0 {
			fn.Ops = 1
		}
		inst.Funcs = append([]pattern.Func{fn}, inst.Funcs...)
	}
	return nil
}

// splitAttrs splits an attribute string on spaces, but keeps bracketed
// lists (funcs=[a:1 b:2], size=[4 4 1]) intact.
func splitAttrs(s string) []string {
	var out []string
	depth := 0
	start := -1
	for i, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case (r == ' ' || r == '\t') && depth == 0:
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// parseFuncList parses "[name:ops name:ops ...]" into pipeline stages.
func parseFuncList(s string) ([]pattern.Func, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("funcs must be a bracketed list, got %q", s)
	}
	var out []pattern.Func
	for _, item := range strings.Fields(s[1 : len(s)-1]) {
		name, opsStr, hasOps := strings.Cut(item, ":")
		f := pattern.Func{Name: name, Ops: 1}
		if hasOps {
			n, err := strconv.Atoi(opsStr)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad ops in funcs item %q", item)
			}
			f.Ops = n
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("funcs list is empty")
	}
	return out, nil
}

// parseTriple parses "[x y z]" into a 3-vector; missing entries are 1.
func parseTriple(s string) ([3]int, error) {
	var v [3]int
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return v, fmt.Errorf("expected bracketed triple, got %q", s)
	}
	fields := strings.Fields(s[1 : len(s)-1])
	if len(fields) == 0 || len(fields) > 3 {
		return v, fmt.Errorf("triple must have 1..3 entries, got %q", s)
	}
	for i := range v {
		v[i] = 1
	}
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return v, fmt.Errorf("bad triple entry %q", f)
		}
		v[i] = n
	}
	return v, nil
}

func parseErr(line int, msg string) error {
	return fmt.Errorf("opencl: parse line %d: %s", line, msg)
}
