package sim

import (
	"math"
	"sort"
)

// HistogramBoundsMS is the shared fixed-bucket layout for latency-shaped
// observations, in milliseconds: bucket i covers (bounds[i-1], bounds[i]],
// bucket 0 additionally absorbs everything ≤ its bound (including
// negatives), and one overflow bucket sits past the last bound. Sample
// uses it to localize percentile queries, and the telemetry histograms
// reuse the exact same layout so a Prometheus `le` series and a Sample
// bucket always mean the same interval.
var HistogramBoundsMS = []float64{
	1, 2, 5, 10, 15, 20, 30, 40, 50, 75,
	100, 150, 200, 300, 400, 500, 750, 1000, 1500, 2000, 5000,
}

// NumHistogramBuckets is len(HistogramBoundsMS) + 1 (the overflow bucket).
var NumHistogramBuckets = len(HistogramBoundsMS) + 1

// BucketIndex maps an observation to its bucket in HistogramBoundsMS:
// the smallest i with v ≤ bounds[i], or len(bounds) when v exceeds every
// bound. The mapping is monotone in v, which is what lets Sample answer
// exact order statistics from bucket counts.
func BucketIndex(v float64) int {
	return sort.SearchFloat64s(HistogramBoundsMS, v)
}

// Sample accumulates scalar observations and answers summary queries:
// count, mean, min/max, and exact percentiles.
// It keeps every observation plus an incrementally-maintained fixed-bucket
// histogram (HistogramBoundsMS): a percentile query walks the bucket
// counts to the bucket holding the target rank and order-selects within
// just that bucket's members, so no query ever sorts the whole sample —
// and the observation slice is never reordered.
type Sample struct {
	values  []float64
	counts  []int // per-bucket tallies, len NumHistogramBuckets once used
	scratch []float64
	mean    float64
	min     float64
	max     float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if len(s.values) == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.values = append(s.values, v)
	if s.counts == nil {
		s.counts = make([]int, NumHistogramBuckets)
	}
	s.counts[BucketIndex(v)]++
	s.mean += (v - s.mean) / float64(len(s.values))
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.values) }

// Values exposes the underlying observations as a read-only view, in
// insertion order (queries never reorder the slice).
func (s *Sample) Values() []float64 { return s.values }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 { return s.max }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using the
// nearest-rank method — exactly the value a full sort would produce.
// Tail-latency SLOs are conventionally reported this way (e.g. p99).
// Empty samples return 0.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	// Walk the bucket counts to the bucket holding the rank-th smallest
	// observation; cum counts the observations in buckets strictly below.
	cum, bucket := 0, 0
	for i, c := range s.counts {
		if cum+c >= rank {
			bucket = i
			break
		}
		cum += c
	}
	// Bucketing is monotone, so the rank-th smallest overall is the
	// (rank−cum)-th smallest within the bucket: gather its members and
	// order-select among just those.
	members := s.scratch[:0]
	for _, v := range s.values {
		if BucketIndex(v) == bucket {
			members = append(members, v)
		}
	}
	s.scratch = members
	sort.Float64s(members)
	return members[rank-cum-1]
}

// P99 is shorthand for Percentile(99), the paper's QoS metric.
func (s *Sample) P99() float64 { return s.Percentile(99) }

// Reset discards all observations.
func (s *Sample) Reset() {
	s.values = s.values[:0]
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.mean, s.min, s.max = 0, 0, 0
}

// TimeSeries records (time, value) points, e.g. instantaneous node power
// over a served trace.
type TimeSeries struct {
	Times  []Time
	Values []float64
}

// Add appends one point. Times must be non-decreasing; out-of-order points
// are clamped to the last recorded time.
func (ts *TimeSeries) Add(t Time, v float64) {
	if n := len(ts.Times); n > 0 && t < ts.Times[n-1] {
		t = ts.Times[n-1]
	}
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.Times) }
