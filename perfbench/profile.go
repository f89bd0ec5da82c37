package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// internalPrefix marks the repository's packages in profile frames.
const internalPrefix = "poly/internal/"

// hostShares runs `go tool pprof -traces` on a CPU profile and returns
// each layer's share of the sampled CPU time.
func hostShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return attribute(string(out))
}

// attribute parses `pprof -traces` text: after a header, blocks of
// stack frames, innermost first, each ended by a dashed line, the
// block's first line led by the sample's weight. It charges every
// sample to the package of its innermost poly/internal frame ("sched",
// "sim", ...), or to "go" when no such frame exists (the Go runtime,
// the garbage collector, the benchmark itself), and returns each
// package's share of the total weight.
func attribute(text string) (map[string]float64, error) {
	weights := map[string]float64{}
	var total, weight float64
	layer := ""
	inBlock, started := false, false
	flush := func() {
		if inBlock {
			if layer == "" {
				layer = "go"
			}
			weights[layer] += weight
			total += weight
		}
		inBlock, layer, weight = false, "", 0
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		f := strings.Fields(line)
		if !started || len(f) == 0 || strings.HasSuffix(f[0], ":") {
			continue // header, blank and label lines
		}
		frame := f[0]
		if !inBlock {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: want a sample weight and frame, got %q", line)
			}
			inBlock, weight, frame = true, d.Seconds(), f[1]
		}
		if layer == "" {
			if pkg, ok := packageOf(frame); ok {
				layer = pkg
			}
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	for k := range weights {
		weights[k] /= total
	}
	return weights, nil
}

// packageOf returns the poly/internal package a frame's function
// belongs to: "poly/internal/sched.(*Scheduler).Schedule" → "sched".
func packageOf(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}
