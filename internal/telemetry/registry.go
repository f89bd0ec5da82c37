package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"poly/internal/sim"
)

// Labels is an ordered list of key/value pairs ("key", "value", ...).
// Series identity canonicalizes by key, so label order never matters.
type Labels []string

// Registry is a label-keyed metric store: counters, gauges, and
// fixed-bucket histograms, grouped into families for Prometheus text
// exposition. It belongs to the Recorder that holds it and, like that
// Recorder, is touched only by the owning goroutine. The zero value is
// an empty registry.
type Registry struct {
	families map[string]*family
	names    []string // family names in first-registration order
	keyBuf   []byte   // scratch for allocation-free series lookups
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*Metric
	keys   []string // series keys in first-registration order
}

// Metric is one series of a family: a counter, gauge, or histogram,
// depending on how it was registered. Histogram series reuse the
// sim.HistogramBoundsMS bucket layout, so a `le` bound here means the
// same interval as a sim.Sample bucket.
type Metric struct {
	labelsStr string // rendered {k="v",...}, sorted by key; "" when unlabeled

	val float64 // counter / gauge value

	// histogram state (kindHistogram only)
	buckets []uint64
	count   uint64
	sum     float64
}

// appendLabelsKey renders labels sorted by key into dst for series
// identity and output. It allocates nothing beyond dst growth: the sort
// is an insertion sort over a small index array (label sets here are
// one to three pairs), so lazy per-event series lookups stay free.
func appendLabelsKey(dst []byte, labels Labels) []byte {
	if len(labels) == 0 {
		return dst
	}
	if len(labels)%2 != 0 {
		panic("telemetry: odd label list")
	}
	n := len(labels) / 2
	var idxBuf [8]int
	idx := idxBuf[:0]
	if n > len(idxBuf) {
		idx = make([]int, 0, n)
	}
	for i := 0; i < n; i++ {
		idx = append(idx, i*2)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && labels[idx[j]] < labels[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	dst = append(dst, '{')
	for i, k := range idx {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[k]...)
		dst = append(dst, '=', '"')
		dst = append(dst, escapeLabel(labels[k+1])...)
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the series for (name, labels), creating family and series
// as needed. Kind and help are fixed by the first registration. A
// lookup that hits an existing series allocates nothing: the rendered
// label key lives in the registry's scratch buffer and only becomes a
// string on first registration.
func (r *Registry) get(name, help string, kind metricKind, labels Labels) *Metric {
	f := r.families[name]
	if f == nil {
		if r.families == nil {
			r.families = make(map[string]*family)
		}
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*Metric)}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	r.keyBuf = appendLabelsKey(r.keyBuf[:0], labels)
	m := f.series[string(r.keyBuf)]
	if m == nil {
		key := string(r.keyBuf)
		m = &Metric{labelsStr: key}
		if f.kind == kindHistogram {
			m.buckets = make([]uint64, sim.NumHistogramBuckets)
		}
		f.series[key] = m
		f.keys = append(f.keys, key)
	}
	return m
}

// Counter returns the counter series for (name, labels), creating it at
// zero on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Metric {
	return r.get(name, help, kindCounter, Labels(labels))
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...string) *Metric {
	return r.get(name, help, kindGauge, Labels(labels))
}

// Histogram returns the histogram series for (name, labels), with the
// shared sim.HistogramBoundsMS bucket layout.
func (r *Registry) Histogram(name, help string, labels ...string) *Metric {
	return r.get(name, help, kindHistogram, Labels(labels))
}

// add / inc / set / observe are the series updates, called by the
// owning Recorder.
func (m *Metric) add(v float64) { m.val += v }
func (m *Metric) inc()          { m.val++ }
func (m *Metric) set(v float64) { m.val = v }
func (m *Metric) observe(v float64) {
	m.buckets[sim.BucketIndex(v)]++
	m.count++
	m.sum += v
}

// Value reads a counter or gauge series, on the goroutine that owns its
// Recorder.
func (m *Metric) Value() float64 { return m.val }

// HistCount returns a histogram series' observation count, under the
// same rule as Value.
func (m *Metric) HistCount() uint64 { return m.count }

// formatValue renders a sample value the shortest way that round-trips.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// write renders the registry in the Prometheus text exposition format
// (version 0.0.4). Families appear in registration order and series in
// first-use order, so output is deterministic for a deterministic run.
func (r *Registry) write(w io.Writer) error {
	for _, name := range r.names {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, key := range f.keys {
			m := f.series[key]
			if f.kind != kindHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, m.labelsStr, formatValue(m.val)); err != nil {
					return err
				}
				continue
			}
			var cum uint64
			for i, c := range m.buckets {
				cum += c
				le := "+Inf"
				if i < len(sim.HistogramBoundsMS) {
					le = formatValue(sim.HistogramBoundsMS[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLabel(m.labelsStr, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, m.labelsStr, formatValue(m.sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, m.labelsStr, m.count); err != nil {
				return err
			}
		}
	}
	return nil
}

// withLabel appends one label pair to an already-rendered label set.
func withLabel(rendered, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}
