// Command polybench regenerates the paper's tables and figures.
//
// Usage:
//
//	polybench -list           # enumerate experiments
//	polybench -run fig8       # run one experiment
//	polybench -run fig8batch  # admission-batching on/off throughput sweep
//	polybench -run all        # run the full suite (several minutes)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"poly/internal/exp"
	"poly/internal/parallel"
	"poly/internal/prof"
	"poly/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "experiment id to run, or 'all'")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of text")
	workers := flag.Int("workers", 0,
		"worker-pool size for sweeps and DSE (0 = POLY_WORKERS or NumCPU, 1 = serial engine; output is identical at any size)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	traceOut := flag.String("trace-out", "", "write a Perfetto/Chrome trace JSON of every single-node session the experiment runs (forces -workers 1; fleet shards are not recorded)")
	metricsOut := flag.String("metrics-out", "", "write the aggregated Prometheus metrics of every single-node session the experiment runs (pool-safe: works at any -workers; fleet shards are not recorded)")
	flag.Parse()
	parallel.SetWorkers(*workers)
	// The recorder is handed to the experiment, which attaches it to
	// every single-node session it builds. Fleet shards never get it:
	// one recorder cannot hold N nodes.
	var rec *telemetry.Recorder
	var sink telemetry.Sink
	switch {
	case *traceOut != "":
		// Tracing must run serial, or parallel sweeps would interleave
		// their timelines in one recorder. (Metric recording itself is
		// pool-safe; it is the per-session Perfetto tracks that cannot
		// share a buffer across workers.)
		fmt.Fprintln(os.Stderr,
			"polybench: -trace-out forces a serial worker pool (POLY_WORKERS ignored); drop -trace-out for parallel sweeps")
		parallel.SetWorkers(1)
		rec = telemetry.New()
		sink = rec
	case *metricsOut != "":
		// Metrics-only recording is safe under the parallel pool: counters
		// and histograms accumulate correctly from any worker, and no
		// per-session trace state exists to interleave.
		rec = telemetry.NewWithOptions(telemetry.Options{MetricsOnly: true})
		sink = rec
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polybench:", err)
		os.Exit(1)
	}
	defer stopProf()

	emit := func(r exp.Result) {
		if *asJSON {
			enc, err := json.MarshalIndent(map[string]any{"id": r.ID(), "result": r}, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "polybench:", err)
				os.Exit(1)
			}
			fmt.Println(string(enc))
			return
		}
		fmt.Println(r.Render())
	}

	switch {
	case *list:
		for _, e := range exp.List() {
			fmt.Printf("  %-10s %s\n", e[0], e[1])
		}
	case *run == "all":
		start := time.Now()
		n := 0
		for _, e := range exp.List() {
			t0 := time.Now()
			r, err := exp.Run(e[0], sink)
			if err != nil {
				fmt.Fprintf(os.Stderr, "polybench: %s: %v\n", e[0], err)
				os.Exit(1)
			}
			emit(r)
			if !*asJSON {
				fmt.Printf("  (%s in %s)\n\n", e[0], time.Since(t0).Round(time.Millisecond))
			}
			n++
		}
		fmt.Printf("completed %d experiments in %s\n", n, time.Since(start).Round(time.Second))
	case *run != "":
		start := time.Now()
		r, err := exp.Run(*run, sink)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polybench:", err)
			os.Exit(1)
		}
		emit(r)
		if !*asJSON {
			fmt.Printf("(%s)\n", time.Since(start).Round(time.Millisecond))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, rec.WriteTrace); err != nil {
			fmt.Fprintln(os.Stderr, "polybench:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events -> %s (load at https://ui.perfetto.dev)\n",
			rec.TraceEventCount(), *traceOut)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, rec.WritePrometheus); err != nil {
			fmt.Fprintln(os.Stderr, "polybench:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: %d spans recorded -> %s (Prometheus text)\n",
			rec.SpanTotal(), *metricsOut)
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
