package sched

import (
	"encoding/binary"
	"math"

	"poly/internal/model"
)

// PlanCache memoizes complete request plans keyed by an exact signature
// of everything that determines the planner's output: the device-state
// vector (name, class, FreeAtMS bits, resident bitstream, reconfiguration
// penalty, DVFS scale, in-plan booking) plus the scheduler's mode fields
// (latency bound, quantized load hint, slack factor, throughput mode).
//
// Because the planners are pure functions of that signature — Schedule
// mutates only scratch state — a hit is semantically identical to a cold
// plan: the cached entry was produced by the real planner on the same
// inputs, and both FreeAtMS and plan times are expressed relative to the
// planning instant, so re-using it at a later wall-clock time needs no
// rebasing beyond returning it as-is. Under steady or idle load the node
// presents the same relative state over and over, which is what makes
// millions of per-request planning calls collapse into lookups.
//
// Hits are zero-copy: the cached *Plan itself is returned, shared by
// every requester. That is sound because plans are sealed at insertion —
// immutable thereafter (the plancheck build tag turns any mutation into a
// panic on the next hit) — and callers keep per-request deviations in
// their own state (the runtime's request.assign) instead of editing the
// plan.
//
// Mode changes (throughput mode, slack, load hint, DVFS, residency) are
// folded into the key rather than flushing entries: when the governor
// oscillates between operating points, the plans for both points stay
// warm.
//
// The cache has a single owner. Each planner builds its own, and every
// serving session and fleet shard builds its own planner, whose scratch
// buffers are not reentrant anyway — so there are no locks or atomics.
// It is one map from key to a slot in an entry slab, with the slots
// threaded into an exact LRU list by index: a hit is one map lookup plus
// a relink, and an insert past capacity reuses the least recently used
// entry's slot, so an insert allocates only the key string (and a slab
// chunk every planChunk inserts while the cache fills).
type PlanCache struct {
	capacity int
	index    map[string]int32
	// chunks is the entry slab, grown a fixed-size chunk at a time so
	// growth never copies it; n slots are in use. head is the most
	// recently used slot and tail the least (-1 when empty).
	chunks       []*[planChunk]planEntry
	n            int32
	head, tail   int32
	hits, misses int
	// streak counts the misses since the last hit (see missStreak).
	streak int
}

// planChunk is the slab's growth step, in entries.
const planChunk = 64

// planEntry is one memoized plan and its LRU links (slab indices, -1 at
// either end of the list).
type planEntry struct {
	key        string
	plan       *Plan
	prev, next int32
}

// at returns slot i's entry.
func (c *PlanCache) at(i int32) *planEntry { return &c.chunks[i/planChunk][i%planChunk] }

// defaultPlanCacheCapacity bounds the key space one planner retains.
// A steady serving run touches a few dozen distinct signatures (idle
// state, a handful of recurring backlogs, × governor operating points);
// 4096 leaves two orders of magnitude of headroom before eviction while
// capping worst-case memory at a few MB per session.
const defaultPlanCacheCapacity = 4096

// newPlanCache builds a cache bounded to capacity entries; capacity <= 0
// returns nil (cache disabled).
func newPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache{capacity: capacity, index: make(map[string]int32), head: -1, tail: -1}
}

// Miss-streak bypass. When the node's state stops repeating (Poisson
// arrivals at the QoS knee), every plan is a miss, and caching it only
// copies a key and retains a plan that never hits. After missStreak
// consecutive misses memo stops caching, except every missReadmit-th
// miss, until the next hit ends the streak. Lookups and counters are
// unchanged, and a plan is the same whether cached or not, so the bypass
// only ever turns a would-be hit into an identical cold plan. The values
// come from seed-1 perfbench runs: the longest streak on node-steady is
// its 63-miss warm-up, so the bypass never engages there; fleet-faults
// streaks reach 2,641 misses, and the bypass raises its cold plans by
// 0.34 % (25,441 → 25,528; a re-admission period of 16 or 256 gave
// 25,515 and 25,528); node-peak repeats 22 of 154k plans.
const (
	missStreak  = 256
	missReadmit = 64
)

// memo returns the plan cached under key, or runs cold, seals its plan
// and caches it unless a miss streak has it bypassing the cache. key may
// be the caller's scratch buffer: put copies it.
func (c *PlanCache) memo(key []byte, cold func() (*Plan, error)) (*Plan, error) {
	if hit := c.get(key); hit != nil {
		return hit, nil
	}
	p, err := cold()
	if err != nil {
		return nil, err
	}
	p.seal()
	if c.streak <= missStreak || (c.streak-missStreak)%missReadmit == 0 {
		c.put(key, p)
	}
	return p, nil
}

// get returns the cached plan for the key, or nil, and marks a hit most
// recently used. The result is the shared sealed plan — callers must not
// mutate it.
func (c *PlanCache) get(key []byte) *Plan {
	// map[string([]byte)] compiles to an allocation-free lookup.
	i, ok := c.index[string(key)]
	if !ok {
		c.misses++
		c.streak++
		return nil
	}
	c.hits++
	c.streak = 0
	c.toFront(i)
	p := c.at(i).plan
	if planCheckEnabled {
		p.verifySeal()
	}
	return p
}

// put stores a sealed plan under a key the cache does not hold, as the
// most recently used entry. Past capacity the least recently used entry
// is evicted and its slot reused.
func (c *PlanCache) put(key []byte, p *Plan) {
	if planCheckEnabled {
		p.verifySeal()
	}
	var i int32
	if int(c.n) < c.capacity {
		i = c.n
		c.n++
		if int(i/planChunk) == len(c.chunks) {
			c.chunks = append(c.chunks, new([planChunk]planEntry))
		}
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.index, c.at(i).key)
	}
	k := string(key)
	*c.at(i) = planEntry{key: k, plan: p}
	c.index[k] = i
	c.pushFront(i)
}

// toFront marks slot i most recently used.
func (c *PlanCache) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// unlink removes slot i from the LRU list.
func (c *PlanCache) unlink(i int32) {
	e := c.at(i)
	if e.prev >= 0 {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront links slot i, not currently in the list, in as its head.
func (c *PlanCache) pushFront(i int32) {
	e := c.at(i)
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.at(c.head).prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.index)
}

// Stats returns the hit/miss counters accumulated since creation.
func (c *PlanCache) Stats() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	return c.hits, c.misses
}

// residencies resolves the boards' resident-bitstream IDs to dense codes
// for the plan key and to implementations for the planning loops. Code 0
// is the blank board. A planner registers its own implementations; any
// other ID gets the next code, with a nil implementation, the first time
// a board reports it, so codes match exactly when IDs do.
type residencies struct {
	byID  map[string]int32
	impls []*model.Impl // by code
	// res is each device position's residency from the last resolve.
	res []residency
}

// residency is one device position's resolved resident bitstream: the
// ID as the caller gave it, its implementation and its code. The zero
// value is the blank board's.
type residency struct {
	id   string
	impl *model.Impl
	code int32
}

func newResidencies() residencies {
	return residencies{byID: map[string]int32{}, impls: []*model.Impl{nil}}
}

// intern returns id's code, registering im under it when im is non-nil.
func (t *residencies) intern(id string, im *model.Impl) int32 {
	if id == "" {
		return 0
	}
	c, ok := t.byID[id]
	if !ok {
		c = int32(len(t.impls))
		t.byID[id] = c
		t.impls = append(t.impls, im)
	} else if im != nil {
		t.impls[c] = im
	}
	return c
}

// resolve fills res for one planning call. Residency rarely changes
// between calls, so a position whose ID matches the previous call's
// keeps that resolution instead of hashing the ID.
func (t *residencies) resolve(devices []DeviceState) {
	if cap(t.res) < len(devices) {
		t.res = make([]residency, len(devices))
	}
	t.res = t.res[:len(devices)]
	for i := range devices {
		if id := devices[i].LoadedImpl; id != t.res[i].id {
			c := t.intern(id, nil)
			t.res[i] = residency{id: id, impl: t.impls[c], code: c}
		}
	}
}

// copyResolved copies devices into dst's storage with each position's
// resolved implementation from the last resolve in loaded, and returns
// it: the planners' working view of the caller's devices.
func (t *residencies) copyResolved(dst, devices []DeviceState) []DeviceState {
	dst = append(dst[:0], devices...)
	for i := range dst {
		dst[i].loaded = t.res[i].impl
	}
	return dst
}

// appendPlanKeyDevices appends the exact device-state signature to b.
// res[i] is device i's resolved residency, whose code the planner interns
// one-to-one with LoadedImpl. Names are NUL-terminated (device
// names never contain NUL) and floats are written as raw IEEE-754 bits,
// so two states map to the same key iff the planner would see
// bit-identical inputs.
func appendPlanKeyDevices(b []byte, devices []DeviceState, res []residency) []byte {
	for i := range devices {
		d := &devices[i]
		b = append(b, d.Name...)
		b = append(b, 0, byte(d.Class))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.FreeAtMS))
		b = binary.LittleEndian.AppendUint32(b, uint32(res[i].code))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.ReconfigMS))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.FreqScale))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.lastEndMS))
	}
	return b
}

// seal marks a plan immutable before it enters a cache. Under the
// plancheck build tag it also fingerprints every value the runtime reads,
// so any later mutation panics on the next cache touch.
func (p *Plan) seal() {
	p.sealed = true
	if planCheckEnabled {
		p.sum = p.fingerprint()
	}
}

// Sealed reports whether the plan has been frozen for shared use.
func (p *Plan) Sealed() bool { return p.sealed }

// verifySeal panics if a sealed plan's contents changed since seal time.
// Only called under the plancheck build tag.
func (p *Plan) verifySeal() {
	if !p.sealed {
		panic("sched: unsealed plan in cache")
	}
	if p.fingerprint() != p.sum {
		panic("sched: cached plan mutated after seal — plans are shared zero-copy and immutable; keep per-request changes out of the plan")
	}
}

// fingerprint hashes every plan field the runtime reads (FNV-1a over the
// ordered assignments and summary scalars).
func (p *Plan) fingerprint() uint64 {
	var h uint64 = 14695981039346656037
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	mix(math.Float64bits(p.MakespanMS))
	mix(math.Float64bits(p.EnergyMJ))
	mix(math.Float64bits(p.BoundMS))
	mix(uint64(p.EnergySwaps))
	for _, a := range p.Order() {
		mixStr(a.Kernel)
		mixStr(a.Device)
		mixStr(ImplID(a.Impl))
		mix(math.Float64bits(a.StartMS))
		mix(math.Float64bits(a.EndMS))
		mix(math.Float64bits(a.ExecMS))
		mix(math.Float64bits(a.CommitMS))
	}
	return h
}
