package fleet

import "time"

// ExpireBefore runs the residue sweep's fan-out at cutoff, as maybeSweep
// does once ResidueTTL is due, and returns the evicted names.
func ExpireBefore(g *Gateway, cutoff time.Duration) []string {
	out, _ := g.expireBefore(cutoff)
	return out
}
