//go:build race

package sim

// The race detector makes sync.Pool drop items at random, so fmt's pooled
// printers are sometimes new and allocation counts through them mean nothing.
func init() { raceEnabled = true }
