//go:build plancheck

package sched

// planCheckEnabled turns on the plan-immutability guard: sealed plans are
// fingerprinted at insertion and re-verified on every cache touch, so any
// mutation of a shared zero-copy plan panics at the next lookup instead of
// silently corrupting other requests. Build with `-tags plancheck` (CI runs
// the sched, runtime and fleet tests this way); the default build
// compiles the checks out.
const planCheckEnabled = true
