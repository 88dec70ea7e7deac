//go:build !race

package raceflag

// Enabled is true in -race builds.
const Enabled = false
