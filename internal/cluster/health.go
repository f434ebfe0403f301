package cluster

import (
	"sync"
	"time"
)

// State is a node's circuit-breaker state. It deliberately mirrors the
// policy's model-lifecycle machine (internal/core.Health): the router
// treats a failing node exactly like the policy treats a diverging
// model — degrade first, fall back after repeated trips, recover
// automatically once the subject proves itself again.
//
//	Healthy ──fail streak──▶ Degraded ──fail streak──▶ Fallback
//	   ▲                         │                         │
//	   └──────── success ────────┴──── half-open probe ────┘
//
// Healthy and Degraded nodes are routed (Degraded is one streak from
// ejection); Fallback nodes are ejected from routing and only half-open
// recovery probes reach them.
type State int32

// Breaker states, ordered by severity. The numeric values are exported
// via the per-node router.node<i>.state gauges.
const (
	// Healthy: the node serves traffic.
	Healthy State = iota
	// Degraded: still routed, but one more failure streak ejects it.
	Degraded
	// Fallback: ejected; only half-open probes are allowed until one
	// succeeds.
	Fallback
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Degraded:
		return "degraded"
	case Fallback:
		return "fallback"
	default:
		return "healthy"
	}
}

// Breaker is one node's failure ladder. Its state is a function of one
// count, the consecutive failures since the last success: Healthy
// below failLimit, Degraded below 2·failLimit, Fallback from there on.
// All methods are safe for concurrent use: request goroutines report
// outcomes while the probe loop asks for half-open admission.
type Breaker struct {
	failLimit     int           // consecutive failures per rung
	halfOpenAfter time.Duration // cool-down before a Fallback node is probed
	now           func() time.Time

	mu      sync.Mutex
	fails   int // consecutive failures; it stops counting at ejection
	ejected time.Time
	probing bool // a half-open probe is in flight
}

// NewBreaker builds a breaker that climbs one rung per failLimit
// consecutive failures and allows a recovery probe halfOpenAfter after
// ejection. now is injectable for deterministic tests; nil uses the
// wall clock.
func NewBreaker(failLimit int, halfOpenAfter time.Duration, now func() time.Time) *Breaker {
	if failLimit <= 0 {
		failLimit = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{failLimit: failLimit, halfOpenAfter: halfOpenAfter, now: now}
}

// state derives the state from the failure count; b.mu must be held.
func (b *Breaker) state() State {
	switch {
	case b.fails < b.failLimit:
		return Healthy
	case b.fails < 2*b.failLimit:
		return Degraded
	}
	return Fallback
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state()
}

// Allow reports whether regular traffic may be routed to the node.
func (b *Breaker) Allow() bool {
	return b.State() != Fallback
}

// AllowProbe admits at most one half-open recovery probe per cool-down
// window to an ejected node. The probe's outcome must be reported via
// Success or Failure, which closes the half-open slot either way.
func (b *Breaker) AllowProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state() != Fallback || b.probing {
		return false
	}
	if b.now().Sub(b.ejected) < b.halfOpenAfter {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful round trip or probe: any success
// restores Healthy from any state, exactly like a completed training
// restores the policy's health machine. It reports whether the state
// moved.
func (b *Breaker) Success() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	moved := b.state() != Healthy
	b.fails = 0
	b.probing = false
	return moved
}

// Failure records a failed round trip or probe. The failLimit-th and
// 2·failLimit-th consecutive failures each climb one rung; any failure
// of an ejected node — a failed half-open probe — re-arms the
// cool-down. It reports whether the state moved.
func (b *Breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	from := b.state()
	if from != Fallback {
		b.fails++
	}
	to := b.state()
	if to == Fallback {
		b.ejected = b.now()
	}
	return to != from
}
