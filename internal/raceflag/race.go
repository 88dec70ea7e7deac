//go:build race

// Package raceflag reports whether the binary was built with the race
// detector. The allocation-budget pin tests (make allocs) skip under it:
// the detector's own bookkeeping allocates, so their counts would pin
// the instrumentation rather than the code.
package raceflag

// Enabled is true in -race builds.
const Enabled = true
