package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// ladderRef is the reference breaker: an explicit three-rung machine
// whose failure count restarts on every rung. Breaker derives the same
// states from one consecutive-failure count.
type ladderRef struct {
	failLimit     int
	halfOpenAfter time.Duration
	now           func() time.Time

	state   State
	fails   int // consecutive failures on the current rung
	ejected time.Time
	probing bool
}

func (b *ladderRef) allow() bool { return b.state != Fallback }

func (b *ladderRef) allowProbe() bool {
	if b.state != Fallback || b.probing {
		return false
	}
	if b.now().Sub(b.ejected) < b.halfOpenAfter {
		return false
	}
	b.probing = true
	return true
}

func (b *ladderRef) success() bool {
	moved := b.state != Healthy
	b.state, b.fails, b.probing = Healthy, 0, false
	return moved
}

func (b *ladderRef) failure() bool {
	b.probing = false
	if b.state == Fallback {
		b.ejected = b.now()
		return false
	}
	b.fails++
	if b.fails < b.failLimit {
		return false
	}
	b.fails = 0
	if b.state == Healthy {
		b.state = Degraded
	} else {
		b.state = Fallback
		b.ejected = b.now()
	}
	return true
}

// TestBreakerMatchesLadder drives Breaker and the reference ladder
// through the same random Success/Failure/AllowProbe sequences on a
// fake clock. At every step they must agree on the state, on Allow, on
// AllowProbe and on whether a Success or Failure moved the state.
func TestBreakerMatchesLadder(t *testing.T) {
	for _, failLimit := range []int{1, 2, 3, 4} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("failLimit=%d/seed=%d", failLimit, seed), func(t *testing.T) {
				clk := &fakeClock{t: time.Unix(1000, 0)}
				b := NewBreaker(failLimit, time.Second, clk.now)
				ref := &ladderRef{failLimit: failLimit, halfOpenAfter: time.Second, now: clk.now}
				rng := rand.New(rand.NewSource(seed))
				fellBack, probed := false, false
				for step := 0; step < 3000; step++ {
					var op string
					var got, want bool
					// Failures outnumber successes so every rung, and
					// the half-open gate, is reached.
					switch x := rng.Intn(20); {
					case x < 7:
						op, got, want = "Failure", b.Failure(), ref.failure()
					case x < 9:
						op, got, want = "Success", b.Success(), ref.success()
					case x < 14:
						op, got, want = "AllowProbe", b.AllowProbe(), ref.allowProbe()
						probed = probed || got
					default:
						clk.advance(time.Duration(rng.Intn(2000)) * time.Millisecond)
						op, got, want = "advance", true, true
					}
					if got != want {
						t.Fatalf("step %d: %s returned %v, the ladder %v", step, op, got, want)
					}
					if b.State() != ref.state || b.Allow() != ref.allow() {
						t.Fatalf("step %d after %s: state %v allow %v, the ladder %v allow %v",
							step, op, b.State(), b.Allow(), ref.state, ref.allow())
					}
					fellBack = fellBack || ref.state == Fallback
				}
				if !fellBack || !probed {
					t.Fatalf("the sequence never reached fallback (%v) or admitted a probe (%v)", fellBack, probed)
				}
			})
		}
	}
}
