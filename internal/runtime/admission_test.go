package runtime

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"poly/internal/cluster"
	"poly/internal/fault"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// admissionTraceSHA256 pins the Chrome trace each TestAdmissionGolden run
// writes, keyed by BatchWaitMS. The trace is too large to keep as a
// golden file; its digest is enough to catch any reordering of admission
// events, spans or batch flushes.
var admissionTraceSHA256 = map[float64]string{
	0: "ce28964a11fe6c40cf31dead87f9bd0ed83baaa084fdeec8e73665d194176bc1",
	4: "76953e583fc6da62455ee3c940928625d49c508d39b85a4f4f0335754ad34db3",
}

// TestAdmissionGolden pins every admission path byte for byte: single
// arrivals, staged groups flushed full or at max-wait, members re-admitted
// one by one when a board-health transition disbands their group, and
// shedding under degraded health. It serves the "degraded admission
// during hold" scenario of TestBatchDisbandPaths (ASR Heter-Poly, 300 RPS
// Poisson for 12 s, a scripted gpu0 failure from 3 to 4 s) with the
// batcher off and on, and compares the run summary and the Prometheus
// exposition against testdata/admission_golden.txt and the trace against
// a digest. Run with -update to print and rewrite them.
func TestAdmissionGolden(t *testing.T) {
	b := benches(t, "ASR")[cluster.HeterPoly]
	var out bytes.Buffer
	for _, wait := range []float64{0, 4} {
		rec := telemetry.New()
		sv := polySession(t, b, -1, Options{
			WarmupMS:    1000,
			BatchWaitMS: wait,
			Telemetry:   rec,
			Faults: &fault.Config{Seed: 7, Script: []fault.Window{
				{Board: "gpu0", Kind: fault.Failure, Start: 3000, End: 4000},
			}},
		})
		NewWorkload(7).InjectPoisson(sv, 300, 0, sim.Time(12000))
		res := sv.Collect()
		fmt.Fprintf(&out, "== BatchWaitMS %g ==\n%s\n", wait, res)
		if err := rec.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := rec.WriteTrace(h); err != nil {
			t.Fatal(err)
		}
		sum := hex.EncodeToString(h.Sum(nil))
		if *update {
			t.Logf("BatchWaitMS %g trace sha256 %s", wait, sum)
		} else if want := admissionTraceSHA256[wait]; sum != want {
			t.Errorf("BatchWaitMS %g: trace sha256 %s, want %s", wait, sum, want)
		}
	}
	golden := filepath.Join("testdata", "admission_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("admission output drifted from %s (%d bytes, want %d); diff it against a -update run",
			golden, out.Len(), len(want))
	}
}
