package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the text exposition format byte for
// byte against testdata/registry_golden.txt: HELP/TYPE lines, label
// rendering, cumulative histogram buckets with the shared `le` bounds,
// and registration-order determinism.
func TestWritePrometheusGolden(t *testing.T) {
	var r Registry
	r.Counter("poly_requests_total", "Finished requests by outcome.", "outcome", "ok").add(12)
	r.Counter("poly_requests_total", "", "outcome", "violation").inc()
	r.Gauge("poly_power_watts", "Node accelerator power at the last sample.").set(137.5)
	h := r.Histogram("poly_request_latency_ms", "End-to-end request latency.")
	for _, v := range []float64{0.4, 3, 3, 18, 42, 6000} {
		h.observe(v)
	}
	// A labeled histogram and out-of-order label keys (must canonicalize).
	r.Histogram("poly_kernel_queue_ms", "Per-kernel device queue wait.", "device", "gpu0").observe(2.5)
	r.Counter("poly_kernel_execs_total", "Kernel executions by placement.",
		"kernel", "mfcc", "device", "gpu0").inc()

	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "registry_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestLabelOrderCanonical checks that label order never splits a series.
func TestLabelOrderCanonical(t *testing.T) {
	var r Registry
	a := r.Counter("x_total", "", "b", "2", "a", "1")
	b := r.Counter("x_total", "", "a", "1", "b", "2")
	if a != b {
		t.Fatal("same labels in different order produced distinct series")
	}
	a.inc()
	if b.Value() != 1 {
		t.Fatalf("value = %v, want 1", b.Value())
	}
}
