package sim

import (
	"math"
	"sort"
	"testing"
)

// sortedPercentile is the reference nearest-rank definition the
// bucket-localized implementation must match exactly: sort a copy, take
// the ceil(p/100*n)-th value.
func sortedPercentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// TestSamplePercentileMatchesSortReference pins the bucket-localized
// selection to the full-sort nearest-rank reference, bit for bit, across
// value ranges that land inside, between, and beyond the histogram
// bounds — including exact bucket boundaries and duplicates.
func TestSamplePercentileMatchesSortReference(t *testing.T) {
	rng := NewRNG(42)
	gens := map[string]func() float64{
		"uniform-wide":  func() float64 { return rng.Float64() * 6000 },
		"uniform-tight": func() float64 { return rng.Float64() * 3 },
		"exp":           func() float64 { return rng.Exp(40) },
		"boundary":      func() float64 { return HistogramBoundsMS[int(rng.Float64()*float64(len(HistogramBoundsMS)))] },
	}
	ps := []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 7, 100, 1000} {
			var s Sample
			raw := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				v := gen()
				raw = append(raw, v)
				s.Add(v)
			}
			for _, p := range ps {
				got, want := s.Percentile(p), sortedPercentile(raw, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: P%v = %v, want %v", name, n, p, got, want)
				}
			}
			// Percentile queries must never reorder the sample.
			vals := s.Values()
			for i, v := range raw {
				if math.Float64bits(vals[i]) != math.Float64bits(v) {
					t.Fatalf("%s n=%d: Values()[%d] = %v, want insertion-order %v", name, n, i, vals[i], v)
				}
			}
		}
	}
}

// TestSampleBucketCounts checks the incremental histogram: counts sum to
// the sample size, boundary values land in the `le` bucket (value ==
// bound counts toward that bound, Prometheus semantics), and Reset
// clears the counts.
func TestSampleBucketCounts(t *testing.T) {
	if BucketIndex(HistogramBoundsMS[0]) != 0 {
		t.Fatalf("value at first bound must land in bucket 0, got %d", BucketIndex(HistogramBoundsMS[0]))
	}
	last := HistogramBoundsMS[len(HistogramBoundsMS)-1]
	if BucketIndex(last+1) != NumHistogramBuckets-1 {
		t.Fatalf("value beyond last bound must land in overflow bucket %d, got %d",
			NumHistogramBuckets-1, BucketIndex(last+1))
	}

	var s Sample
	for i := 0; i < 500; i++ {
		s.Add(float64(i) * 11.3)
	}
	total := 0
	for _, c := range s.counts {
		total += c
	}
	if total != s.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count())
	}
	s.Reset()
	for _, c := range s.counts {
		if c != 0 {
			t.Fatal("Reset must zero bucket counts")
		}
	}
}
