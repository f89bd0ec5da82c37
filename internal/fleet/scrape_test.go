package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"poly/internal/cluster"
	"poly/internal/core"
	"poly/internal/runtime"
	"poly/internal/sim"
	"poly/internal/telemetry"
)

// scraper scrapes one /metrics handler in a loop on its own goroutine,
// the way a Prometheus server polls a live run, until stopped.
type scraper struct {
	cancel context.CancelFunc
	done   chan scrapeLog
}

// scrapeLog is what a scraper saw: how many scrapes the recorder's owner
// answered, the first body that did not parse, and the first few bodies.
type scrapeLog struct {
	answered int
	badBody  error
	bodies   []string
}

func startScraper(h http.Handler) *scraper {
	ctx, cancel := context.WithCancel(context.Background())
	s := &scraper{cancel: cancel, done: make(chan scrapeLog, 1)}
	go func() {
		var log scrapeLog
		for ctx.Err() == nil {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil).WithContext(ctx))
			if w.Body.Len() == 0 {
				continue // cancelled before the owner answered
			}
			log.answered++
			if err := parseExposition(w.Body.String()); err != nil && log.badBody == nil {
				log.badBody = err
			}
			if len(log.bodies) < 8 {
				log.bodies = append(log.bodies, w.Body.String())
			}
		}
		s.done <- log
	}()
	return s
}

// stop cancels the scrape loop (a scrape still waiting for the owner
// returns empty) and reports what the scraper saw.
func (s *scraper) stop() scrapeLog {
	s.cancel()
	return <-s.done
}

var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// parseExposition checks a body line by line against the Prometheus text
// format (0.0.4): HELP and TYPE comments naming a valid metric, and
// samples of a valid name, an optional {label set} and a float value.
func parseExposition(body string) error {
	if !strings.HasSuffix(body, "\n") {
		return fmt.Errorf("body does not end in a newline")
	}
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			switch {
			case len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") || !metricName.MatchString(f[2]):
				return fmt.Errorf("line %d: bad comment %q", i+1, line)
			case f[1] == "TYPE" && (len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram")):
				return fmt.Errorf("line %d: bad TYPE %q", i+1, line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no value in %q", i+1, line)
		}
		name := line[:sp]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if !strings.HasSuffix(name, "}") {
				return fmt.Errorf("line %d: unterminated label set in %q", i+1, line)
			}
			name = name[:j]
		}
		if !metricName.MatchString(name) {
			return fmt.Errorf("line %d: bad metric name in %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			return fmt.Errorf("line %d: %v", i+1, err)
		}
	}
	return nil
}

// recording is everything a run leaves in its recorders: the final
// exposition and, where the recorders keep one, the trace JSON of each,
// and the run's latency samples.
type recording struct {
	metrics, traces []string
	lat             []float64
}

// record reads the recorders' final state. Fleet shard recorders keep
// no trace, so only a traced run reads one.
func record(t *testing.T, recs []*telemetry.Recorder, traced bool, lat []float64) recording {
	t.Helper()
	out := recording{lat: lat}
	for _, rec := range recs {
		var m, tr bytes.Buffer
		if err := rec.WritePrometheus(&m); err != nil {
			t.Fatal(err)
		}
		if traced {
			if err := rec.WriteTrace(&tr); err != nil {
				t.Fatal(err)
			}
		}
		out.metrics = append(out.metrics, m.String())
		out.traces = append(out.traces, tr.String())
	}
	return out
}

// checkScraped fails unless the scraped run left exactly what the
// unscraped one did, and every recorder answered at least one scrape
// mid-run with a well-formed body that is not the final exposition.
func checkScraped(t *testing.T, scraped, plain recording, logs []scrapeLog) {
	t.Helper()
	for i := range plain.metrics {
		if scraped.metrics[i] != plain.metrics[i] {
			t.Fatalf("recorder %d: final exposition differs from an unscraped run's", i)
		}
		if scraped.traces[i] != plain.traces[i] {
			t.Fatalf("recorder %d: trace JSON differs from an unscraped run's", i)
		}
		log := logs[i]
		if log.answered == 0 {
			t.Fatalf("recorder %d: no scrape answered while the run stepped", i)
		}
		if log.badBody != nil {
			t.Fatalf("recorder %d: scraped body is not exposition text: %v", i, log.badBody)
		}
		mid := false
		for _, b := range log.bodies {
			mid = mid || b != plain.metrics[i]
		}
		if !mid {
			t.Fatalf("recorder %d: every scraped body equals the final exposition", i)
		}
	}
	if len(scraped.lat) != len(plain.lat) || len(plain.lat) == 0 {
		t.Fatalf("latency sample counts: %d scraped vs %d plain", len(scraped.lat), len(plain.lat))
	}
	for i := range plain.lat {
		if math.Float64bits(scraped.lat[i]) != math.Float64bits(plain.lat[i]) {
			t.Fatalf("latency sample %d diverged: %v vs %v", i, scraped.lat[i], plain.lat[i])
		}
	}
}

// TestMetricsScrapeMidRun scrapes a telemetry-on single-node session's
// /metrics from another goroutine while the run steps. The test steps
// the simulator in Server.Collect's governor-period horizons and yields
// to the scraper between them; the recorder's owner (this goroutine)
// answers waiting scrapes at FinishSpan and PowerSample. The scrapes
// must not touch the run: its final exposition, trace JSON and latency
// samples equal those of a plain Collect. Homo-GPU runs with the
// governor off, so its power is sampled only at the run's ends and every
// answer comes from a FinishSpan.
func TestMetricsScrapeMidRun(t *testing.T) {
	for _, arch := range []cluster.Architecture{cluster.HeterPoly, cluster.HomoGPU} {
		t.Run(arch.String(), func(t *testing.T) { testMetricsScrapeMidRun(t, arch) })
	}
}

func testMetricsScrapeMidRun(t *testing.T, arch cluster.Architecture) {
	fw, err := core.App("ASR")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fw.Bench(arch, cluster.SettingI)
	if err != nil {
		t.Fatal(err)
	}
	run := func(scrape bool) (recording, []scrapeLog) {
		s := sim.New()
		rec := telemetry.New()
		srv, _, err := b.NewShardSession(s, "", runtime.Options{WarmupMS: 1000, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		runtime.NewWorkload(5).InjectPoisson(srv, 60, 0, 6000)
		var logs []scrapeLog
		if scrape {
			sc := startScraper(rec.MetricsHandler())
			period := sim.Time(srv.GovernorPeriodMS())
			for h := s.Now() + period; !srv.Drained(); h += period {
				s.RunUntil(h)
				goruntime.Gosched()
			}
			logs = append(logs, sc.stop())
		}
		srv.Collect()
		return record(t, []*telemetry.Recorder{rec}, true, srv.LatencySamples()), logs
	}
	plain, _ := run(false)
	scraped, logs := run(true)
	checkScraped(t, scraped, plain, logs)
}

// TestFleetMetricsScrapeMidRun is TestMetricsScrapeMidRun for a 2-node
// WithTelemetry fleet: one scraper per shard recorder, as polysim mounts
// them at /metrics/n<i>. The scraped run replays Collect's drain horizon
// by horizon (yielding to the scrapers between horizons) and the plain
// run calls Collect, so the byte-identity check also pins the replay to
// the production drain. Shard recorders keep no trace, so the check
// covers the expositions and latency samples.
func TestFleetMetricsScrapeMidRun(t *testing.T) {
	b := asrBench(t)
	run := func(scrape bool) (recording, []scrapeLog) {
		f, err := New(b, Options{Nodes: 2, Policy: LeastUtil, WithTelemetry: true,
			Runtime: runtime.Options{WarmupMS: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		runtime.NewWorkload(5).InjectPoisson(f, 80, 0, 6000)
		recs := []*telemetry.Recorder{f.Recorder(0), f.Recorder(1)}
		if !scrape {
			f.Collect()
			return record(t, recs, false, f.LatencySamples()), nil
		}
		var scrapers []*scraper
		for _, rec := range recs {
			scrapers = append(scrapers, startScraper(rec.MetricsHandler()))
		}
		marks := make([]uint64, len(f.shards))
		for i, sh := range f.shards {
			marks[i] = sh.sim.SeqMark()
		}
		sort.SliceStable(f.arrivals, func(i, j int) bool { return f.arrivals[i] < f.arrivals[j] })
		period := sim.Time(f.shards[0].srv.GovernorPeriodMS())
		horizon := f.shards[0].sim.Now() + period
		for !f.drained() {
			f.advanceTo(marks, horizon)
			horizon += period
			goruntime.Gosched()
		}
		f.advanceTo(marks, horizon)
		var logs []scrapeLog
		for _, sc := range scrapers {
			logs = append(logs, sc.stop())
		}
		f.result()
		return record(t, recs, false, f.LatencySamples()), logs
	}
	plain, _ := run(false)
	scraped, logs := run(true)
	checkScraped(t, scraped, plain, logs)
}
