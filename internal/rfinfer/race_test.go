//go:build race

package rfinfer

// The race detector makes sync.Pool drop items at random, so a borrowed
// scratch is sometimes new and allocation counts through it mean nothing.
func init() { raceEnabled = true }
