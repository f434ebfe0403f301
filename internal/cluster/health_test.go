package cluster

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is an injectable breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestBreakerLadder: consecutive failures climb
// Healthy→Degraded→Fallback one rung per failLimit streak, and any
// success restores Healthy — the same shape as the policy's
// model-lifecycle machine.
func TestBreakerLadder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(3, time.Second, clk.now)

	if b.State() != Healthy || !b.Allow() {
		t.Fatal("new breaker not healthy")
	}
	b.Failure()
	b.Failure()
	if b.State() != Healthy {
		t.Fatal("degraded before the streak completed")
	}
	b.Failure()
	if b.State() != Degraded || !b.Allow() {
		t.Fatalf("state %v after one full streak, want degraded (still routed)", b.State())
	}
	// A success anywhere on the ladder resets to Healthy.
	b.Success()
	if b.State() != Healthy {
		t.Fatal("success did not restore healthy")
	}
	// Two full streaks eject.
	for i := 0; i < 6; i++ {
		b.Failure()
	}
	if b.State() != Fallback || b.Allow() {
		t.Fatalf("state %v after two streaks, want fallback (ejected)", b.State())
	}
}

// TestBreakerHalfOpen: an ejected node admits exactly one probe per
// cool-down window; a failed probe re-arms the window whatever the
// failLimit, a successful one recovers the node.
func TestBreakerHalfOpen(t *testing.T) {
	for _, failLimit := range []int{1, 3} {
		t.Run(fmt.Sprintf("failLimit=%d", failLimit), func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(100, 0)}
			b := NewBreaker(failLimit, time.Second, clk.now)
			for i := 0; i < 2*failLimit; i++ {
				b.Failure() // two full streaks: -> Degraded -> Fallback
			}
			if b.State() != Fallback {
				t.Fatalf("state %v, want fallback", b.State())
			}
			if b.AllowProbe() {
				t.Fatal("probe admitted before the cool-down elapsed")
			}
			clk.advance(time.Second)
			if !b.AllowProbe() {
				t.Fatal("probe refused after the cool-down")
			}
			if b.AllowProbe() {
				t.Fatal("second concurrent probe admitted")
			}
			// Failed probe: stays ejected, cool-down re-arms.
			b.Failure()
			if b.State() != Fallback {
				t.Fatal("failed probe changed state")
			}
			if b.AllowProbe() {
				t.Fatal("probe admitted immediately after a failed probe")
			}
			clk.advance(time.Second)
			if !b.AllowProbe() {
				t.Fatal("probe refused after re-armed cool-down")
			}
			// Successful probe: full recovery.
			b.Success()
			if b.State() != Healthy || !b.Allow() {
				t.Fatalf("state %v after successful probe, want healthy", b.State())
			}
		})
	}
}
