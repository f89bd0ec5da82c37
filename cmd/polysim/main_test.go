package main

import (
	"math"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	const sec = time.Second
	for _, c := range []struct {
		name      string
		rps       float64
		duration  time.Duration
		nodes     int
		batchWait float64
		batchCap  int
		ok        bool
	}{
		{"defaults", 40, 20 * sec, 1, 0, 0, true},
		{"zero rps", 0, 20 * sec, 1, 0, 0, true},
		{"fleet with batching", 160, 10 * sec, 4, 4, 8, true},
		{"batch-wait alone", 40, 20 * sec, 1, 4, 0, true},
		{"NaN rps", math.NaN(), 20 * sec, 1, 0, 0, false},
		{"+Inf rps", math.Inf(1), 20 * sec, 1, 0, 0, false},
		{"-Inf rps", math.Inf(-1), 20 * sec, 1, 0, 0, false},
		{"negative rps", -1, 20 * sec, 1, 0, 0, false},
		{"zero duration", 40, 0, 1, 0, 0, false},
		{"negative duration", 40, -sec, 1, 0, 0, false},
		{"zero nodes", 40, 20 * sec, 0, 0, 0, false},
		{"negative nodes", 40, 20 * sec, -3, 0, 0, false},
		{"negative batch-wait", 40, 20 * sec, 1, -1, 0, false},
		{"NaN batch-wait", 40, 20 * sec, 1, math.NaN(), 0, false},
		{"negative batch", 40, 20 * sec, 1, 4, -1, false},
		{"batch without batch-wait", 40, 20 * sec, 1, 0, 8, false},
	} {
		err := validate(c.rps, c.duration, c.nodes, c.batchWait, c.batchCap)
		if (err == nil) != c.ok {
			t.Errorf("%s: validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
