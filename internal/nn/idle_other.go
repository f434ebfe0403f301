//go:build !linux

package nn

// idleThread leaves the calling thread at its priority: the idle
// scheduling class is Linux's (idle_linux.go).
func idleThread() {}
