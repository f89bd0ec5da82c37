package opencl

import (
	"fmt"
	"math"
	"strings"

	"poly/internal/pattern"
)

// DataType is an element type in a kernel buffer.
type DataType int

// Supported element types.
const (
	Float32 DataType = iota
	Float64
	Int32
	UInt8
)

var dataTypeNames = map[DataType]string{
	Float32: "f32",
	Float64: "f64",
	Int32:   "i32",
	UInt8:   "u8",
}

var dataTypeSizes = map[DataType]int{
	Float32: 4,
	Float64: 8,
	Int32:   4,
	UInt8:   1,
}

// String returns the annotation spelling of the type.
func (d DataType) String() string {
	if s, ok := dataTypeNames[d]; ok {
		return s
	}
	return fmt.Sprintf("DataType(%d)", int(d))
}

// Size returns the element size in bytes.
func (d DataType) Size() int { return dataTypeSizes[d] }

// ParseDataType converts an annotation spelling to a DataType.
func ParseDataType(s string) (DataType, error) {
	for d, name := range dataTypeNames {
		if strings.EqualFold(s, name) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("opencl: unknown data type %q", s)
}

// Buffer is a named input or output data collection of a kernel.
type Buffer struct {
	Name string
	Type DataType
	// Dims are the logical dimensions; element count is their product.
	Dims []int
	// Const marks request-invariant data (weights, coefficient tables,
	// Galois-field tables). Const buffers are fetched once per batch on
	// GPUs and pinned in on-chip memory on FPGAs, which is what makes
	// batching pay off on one platform and deep pipelines on the other.
	Const bool
}

// Elems returns the total element count.
func (b *Buffer) Elems() int {
	n := 1
	for _, d := range b.Dims {
		n *= d
	}
	return n
}

// Bytes returns the buffer footprint in bytes.
func (b *Buffer) Bytes() int64 {
	return int64(b.Elems()) * int64(b.Type.Size())
}

func (b *Buffer) String() string {
	dims := make([]string, len(b.Dims))
	for i, d := range b.Dims {
		dims[i] = fmt.Sprint(d)
	}
	return fmt.Sprintf("%s %s[%s]", b.Name, b.Type, strings.Join(dims, "x"))
}

// Kernel is one OpenCL kernel: a named PPG plus its interface buffers.
// The runtime scheduler treats kernels as the atomic unit of placement
// (Section V: nodes of the kernel graph G).
type Kernel struct {
	// Name is unique within a program.
	Name string
	// Patterns is the kernel's parallel pattern graph.
	Patterns *pattern.Graph
	// Inputs are the buffers read from global memory (host-visible).
	Inputs []Buffer
	// Outputs names the pattern instances whose results leave the kernel.
	Outputs []string
	// Repeat is how many times the kernel body executes per service
	// request (e.g. an LSTM cell runs once per frame per layer). Zero
	// means 1.
	Repeat int
}

// Invocations returns Repeat normalized to at least 1.
func (k *Kernel) Invocations() int {
	if k.Repeat < 1 {
		return 1
	}
	return k.Repeat
}

// InputBytes returns the bytes transferred host→device per invocation,
// including const data.
func (k *Kernel) InputBytes() int64 {
	var n int64
	for i := range k.Inputs {
		n += k.Inputs[i].Bytes()
	}
	return n
}

// ConstBytes returns the bytes of request-invariant input data.
func (k *Kernel) ConstBytes() int64 {
	var n int64
	for i := range k.Inputs {
		if k.Inputs[i].Const {
			n += k.Inputs[i].Bytes()
		}
	}
	return n
}

// RequestBytes returns the per-request (non-const) input bytes.
func (k *Kernel) RequestBytes() int64 { return k.InputBytes() - k.ConstBytes() }

// OutputBytes returns the bytes produced by the output patterns.
func (k *Kernel) OutputBytes() int64 {
	var n int64
	for _, name := range k.Outputs {
		if in := k.Patterns.Node(name); in != nil {
			n += in.OutputBytes()
		}
	}
	return n
}

// Input returns the named input buffer, or nil.
func (k *Kernel) Input(name string) *Buffer {
	for i := range k.Inputs {
		if k.Inputs[i].Name == name {
			return &k.Inputs[i]
		}
	}
	return nil
}

// Validate checks the kernel's structural invariants.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("opencl: kernel with empty name")
	}
	if k.Patterns == nil || k.Patterns.Len() == 0 {
		return fmt.Errorf("opencl: kernel %q has no patterns", k.Name)
	}
	if err := k.Patterns.Validate(); err != nil {
		return fmt.Errorf("opencl: kernel %q: %w", k.Name, err)
	}
	if k.Repeat < 0 {
		return fmt.Errorf("opencl: kernel %q has negative repeat", k.Name)
	}
	seen := map[string]bool{}
	for i := range k.Inputs {
		b := &k.Inputs[i]
		if b.Name == "" {
			return fmt.Errorf("opencl: kernel %q has an unnamed buffer", k.Name)
		}
		if seen[b.Name] {
			return fmt.Errorf("opencl: kernel %q: duplicate buffer %q", k.Name, b.Name)
		}
		seen[b.Name] = true
		if b.Elems() <= 0 {
			return fmt.Errorf("opencl: kernel %q: buffer %q has non-positive size", k.Name, b.Name)
		}
	}
	if len(k.Outputs) == 0 {
		return fmt.Errorf("opencl: kernel %q declares no outputs", k.Name)
	}
	for _, o := range k.Outputs {
		if k.Patterns.Node(o) == nil {
			return fmt.Errorf("opencl: kernel %q: output %q is not a pattern instance", k.Name, o)
		}
	}
	return nil
}

// KernelEdge is a host-level data dependency between kernels: the bytes
// move over PCIe unless producer and consumer land on the same device.
type KernelEdge struct {
	From, To string
	Bytes    int64
}

// Program is a whole interactive application: the kernel DAG the runtime
// scheduler (Section V) operates on.
type Program struct {
	Name string
	// LatencyBoundMS is the application's QoS tail-latency bound LB.
	LatencyBoundMS float64
	kernels        []*Kernel
	index          map[string]*Kernel
	edges          []KernelEdge
}

// NewProgram returns an empty program with the given name and latency
// bound in milliseconds.
func NewProgram(name string, latencyBoundMS float64) *Program {
	return &Program{
		Name:           name,
		LatencyBoundMS: latencyBoundMS,
		index:          make(map[string]*Kernel),
	}
}

// AddKernel appends a kernel; duplicate names are rejected.
func (p *Program) AddKernel(k *Kernel) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if _, dup := p.index[k.Name]; dup {
		return fmt.Errorf("opencl: duplicate kernel %q in program %q", k.Name, p.Name)
	}
	p.kernels = append(p.kernels, k)
	p.index[k.Name] = k
	return nil
}

// Connect records a data dependency between two kernels.
func (p *Program) Connect(from, to string, bytes int64) error {
	if from == to {
		return fmt.Errorf("opencl: self dependency on kernel %q", from)
	}
	if _, ok := p.index[from]; !ok {
		return fmt.Errorf("opencl: unknown kernel %q in edge", from)
	}
	if _, ok := p.index[to]; !ok {
		return fmt.Errorf("opencl: unknown kernel %q in edge", to)
	}
	if bytes < 0 {
		return fmt.Errorf("opencl: negative edge volume %d on %s->%s", bytes, from, to)
	}
	p.edges = append(p.edges, KernelEdge{From: from, To: to, Bytes: bytes})
	return nil
}

// Kernels returns the kernels in declaration order.
func (p *Program) Kernels() []*Kernel {
	return append([]*Kernel(nil), p.kernels...)
}

// Kernel returns the named kernel, or nil.
func (p *Program) Kernel(name string) *Kernel { return p.index[name] }

// Edges returns the kernel-level data dependencies.
func (p *Program) Edges() []KernelEdge {
	return append([]KernelEdge(nil), p.edges...)
}

// Succs returns edges leaving the named kernel.
func (p *Program) Succs(name string) []KernelEdge {
	var out []KernelEdge
	for _, e := range p.edges {
		if e.From == name {
			out = append(out, e)
		}
	}
	return out
}

// Preds returns edges entering the named kernel.
func (p *Program) Preds(name string) []KernelEdge {
	var out []KernelEdge
	for _, e := range p.edges {
		if e.To == name {
			out = append(out, e)
		}
	}
	return out
}

// TopoSort returns kernel names in dependency order, or a cycle error.
func (p *Program) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(p.kernels))
	for _, k := range p.kernels {
		indeg[k.Name] = 0
	}
	for _, e := range p.edges {
		indeg[e.To]++
	}
	var ready []string
	for _, k := range p.kernels {
		if indeg[k.Name] == 0 {
			ready = append(ready, k.Name)
		}
	}
	var out []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		for _, e := range p.edges {
			if e.From != n {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(out) != len(p.kernels) {
		return nil, fmt.Errorf("opencl: program %q has a kernel-level cycle", p.Name)
	}
	return out, nil
}

// Validate checks the whole program.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("opencl: program with empty name")
	}
	if len(p.kernels) == 0 {
		return fmt.Errorf("opencl: program %q has no kernels", p.Name)
	}
	if !(p.LatencyBoundMS > 0) || math.IsInf(p.LatencyBoundMS, 1) {
		return fmt.Errorf("opencl: program %q has latency bound %v ms, want finite and > 0", p.Name, p.LatencyBoundMS)
	}
	for _, k := range p.kernels {
		if err := k.Validate(); err != nil {
			return err
		}
	}
	_, err := p.TopoSort()
	return err
}
