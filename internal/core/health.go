package core

// Health is the policy's model-lifecycle state (DESIGN.md "Model
// lifecycle & failure domains"). Raven starts Healthy, degrades as
// the training guard trips, and in Fallback stops trusting the MDN
// entirely: evictions come from the LRU list the policy already
// maintains (the same rule it uses before the first model exists),
// while training keeps retrying every window. A completed,
// non-diverged training returns the policy to Healthy from any state.
//
//	Healthy ──guard trip──▶ Degraded ──guard trip──▶ Fallback
//	   ▲                        │                        │
//	   └──── training OK ───────┴───── training OK ──────┘
//
// A non-finite priority score observed during eviction jumps straight
// to Fallback: the model is provably insane and must not pick
// victims.
type Health int

// Health states, ordered by severity. The numeric values are exported
// via the raven.health gauge.
const (
	// Healthy: the model (if any) is trusted for eviction.
	Healthy Health = iota
	// Degraded: the last training diverged and was rolled back; the
	// previous good model still decides evictions, but one more trip
	// falls back to LRU.
	Degraded
	// Fallback: the model is not consulted; evictions are LRU.
	// Training retries every window and recovery is automatic.
	Fallback
)

// String returns the state name.
func (h Health) String() string {
	switch h {
	case Degraded:
		return "degraded"
	case Fallback:
		return "fallback"
	default:
		return "healthy"
	}
}

// HealthTransition is one recorded state change, for tests and
// postmortems (the obs gauge only shows the latest state).
type HealthTransition struct {
	At       int64 // virtual time of the transition
	From, To Health
	Reason   string
}

// setHealth moves the state machine, recording the transition and
// mirroring it to the obs gauge.
func (r *Raven) setHealth(to Health, reason string) {
	if r.health == to {
		return
	}
	r.HealthLog = append(r.HealthLog, HealthTransition{At: r.now, From: r.health, To: to, Reason: reason})
	r.health = to
	if r.obs != nil {
		r.obs.Health.Set(int64(to))
		r.obs.HealthTransitions.Inc()
	}
}

// Health returns the current model-lifecycle state.
func (r *Raven) Health() Health { return r.health }

const (
	// fallbackAfterTrips is how many consecutive guard trips force the
	// Fallback state (LRU eviction until a training succeeds): the
	// first trip only degrades.
	fallbackAfterTrips = 2
	// sloTripsBeforeDegrade is how many consecutive DecisionBudget
	// overruns count as one guard trip.
	sloTripsBeforeDegrade = 4
)

// guardTripped advances the state machine after a diverged training:
// Healthy degrades, Degraded falls back, and enough consecutive trips
// (fallbackAfterTrips) force Fallback from any state.
func (r *Raven) guardTripped(reason string) {
	r.trips++
	if r.obs != nil {
		r.obs.GuardTrips.Inc()
	}
	switch {
	case r.trips >= fallbackAfterTrips:
		r.setHealth(Fallback, reason)
	case r.health == Healthy:
		r.setHealth(Degraded, reason)
	default:
		r.setHealth(Fallback, reason)
	}
}

// trainSucceeded resets the trip counter and restores Healthy from
// any state — the new model just proved it can fit the workload.
func (r *Raven) trainSucceeded() {
	r.trips = 0
	r.setHealth(Healthy, "training completed")
}

// sloOverrun records one eviction decision abandoned past its
// DecisionBudget deadline. The decision itself is served from the LRU
// fallback list by the caller; here the overrun is counted and, after
// sloTripsBeforeDegrade consecutive overruns, converted into a
// guard trip — the same Healthy→Degraded→Fallback ladder a diverged
// training climbs, so a model that is too slow is treated exactly
// like a model that is wrong. Recovery is the usual one: the next
// completed training resets the machine to Healthy.
func (r *Raven) sloOverrun() {
	if r.obs != nil {
		r.obs.SLOOverruns.Inc()
	}
	r.sloStreak++
	if r.sloStreak >= sloTripsBeforeDegrade {
		r.sloStreak = 0
		r.guardTripped("eviction decision SLO overrun")
	}
}

// sloMet resets the consecutive-overrun streak after a decision that
// finished within budget — only unbroken runs of overruns degrade.
func (r *Raven) sloMet() { r.sloStreak = 0 }

// scoresInsane enters Fallback immediately after a non-finite
// priority score: no further model output can be trusted until a
// retrain succeeds.
func (r *Raven) scoresInsane() {
	r.trips = fallbackAfterTrips
	r.setHealth(Fallback, "non-finite priority score")
}
