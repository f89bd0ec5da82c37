package sched

import (
	"encoding/binary"
	"testing"
)

// cacheHitKeys synthesizes n device-signature-shaped keys (~200 bytes,
// the size appendPlanKeyDevices produces for a Setting-I node) and
// populates the cache with one sealed plan per key.
func cacheHitKeys(c *PlanCache, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 0, 200)
		k = append(k, "gpu0\x00heter-asr-steady-signature"...)
		for w := 0; w < 20; w++ {
			k = binary.LittleEndian.AppendUint64(k, uint64(i*31+w))
		}
		keys[i] = k
		p := &Plan{MakespanMS: float64(i)}
		p.seal()
		c.put(k, p)
	}
	return keys
}

// BenchmarkPlanCacheHit is the hit path: one goroutine cycling through a
// warm working set, the per-request cost a serving session pays.
func BenchmarkPlanCacheHit(b *testing.B) {
	c := newPlanCache(1024)
	keys := cacheHitKeys(c, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.get(keys[i&63]) == nil {
			b.Fatal("unexpected miss")
		}
	}
}
