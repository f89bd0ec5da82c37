package main

import (
	"container/heap"
	"time"
)

// refNominalS is the reference kernel's time on the host the benchmark
// was written on, at its typical speed. Host times are scaled to it.
const refNominalS = 0.040

// The reference kernel is a fixed discrete-event loop, owned by the
// benchmark and independent of the program: a priority queue of 1024
// pending events, a map of short float slices keyed by event, and one
// small allocation per event, like the simulator's hot path. Its time
// measures how fast the host is at the moment. On a shared 2-vCPU
// virtual machine the program's speed moved by 2× within an hour, with
// little of it reported as steal; scaling host times by the kernel's
// speed removes much of that drift (NOTES.md, Host time).
const (
	refPending = 1024
	refKeys    = 4096
	refSteps   = 150_000
)

type refEvent struct {
	at  float64
	key int
	buf []float64 // keeps the slice it was filed under alive
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSink keeps the kernel's result observable so the compiler cannot
// drop its work.
var refSink float64

// refKernel runs the reference kernel once and returns its wall seconds.
func refKernel() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252) // xorshift64 state
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := make(refQueue, 0, refPending)
	for i := 0; i < refPending; i++ {
		q = append(q, &refEvent{at: float64(next()%1000) / 10, key: i})
	}
	heap.Init(&q)
	table := make(map[int][]float64)
	var acc float64
	for n := 0; n < refSteps; n++ {
		e := heap.Pop(&q).(*refEvent)
		k := e.key % refKeys
		v, ok := table[k]
		if !ok || len(v) > 16 {
			v = make([]float64, 0, 8)
		}
		v = append(v, e.at)
		table[k] = v
		for _, f := range v {
			acc += f * 1e-9
		}
		heap.Push(&q, &refEvent{at: e.at + float64(next()%10000)/100, key: int(next() % (4 * refKeys)), buf: v})
	}
	refSink += acc
	return time.Since(t0).Seconds()
}
