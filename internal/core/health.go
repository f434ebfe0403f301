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

// Health returns the current model-lifecycle state. It is derived
// from the consecutive-trip counter: each trip climbs one rung, and
// fallbackAfterTrips of them reach Fallback.
func (r *Raven) Health() Health { return Health(min(r.trips, fallbackAfterTrips)) }

const (
	// fallbackAfterTrips is how many consecutive guard trips force the
	// Fallback state (LRU eviction until a training succeeds): the
	// first trip only degrades.
	fallbackAfterTrips = int(Fallback)
	// sloTripsBeforeDegrade is how many consecutive DecisionBudget
	// overruns count as one guard trip.
	sloTripsBeforeDegrade = 4
	// healthLogCap bounds HealthLog over unbounded uptime: the oldest
	// transition is dropped once it holds this many.
	healthLogCap = 64
)

// setTrips moves the trip counter, and with it the state machine,
// recording a health transition and mirroring it to the obs surface.
func (r *Raven) setTrips(trips int, reason string) {
	from := r.Health()
	r.trips = trips
	to := r.Health()
	if from == to {
		return
	}
	if len(r.HealthLog) == healthLogCap {
		r.HealthLog = append(r.HealthLog[:0], r.HealthLog[1:]...)
	}
	r.HealthLog = append(r.HealthLog, HealthTransition{At: r.now, From: from, To: to, Reason: reason})
	r.obs.HealthMoved(int64(from), int64(to))
}

// guardTripped climbs one rung after a diverged training or an SLO
// overrun streak: Healthy degrades, and Degraded falls back.
func (r *Raven) guardTripped(reason string) {
	r.obs.GuardTrips.Inc()
	r.setTrips(r.trips+1, reason)
}

// trainSucceeded resets the trip counter and restores Healthy from
// any state — the new model just proved it can fit the workload.
func (r *Raven) trainSucceeded() { r.setTrips(0, "training completed") }

// sloOverrun records one eviction decision abandoned past its
// DecisionBudget deadline. The decision itself is served from the LRU
// fallback list by the caller; here the overrun is counted and, after
// sloTripsBeforeDegrade consecutive overruns, converted into a
// guard trip — the same Healthy→Degraded→Fallback ladder a diverged
// training climbs, so a model that is too slow is treated exactly
// like a model that is wrong. Recovery is the usual one: the next
// completed training resets the machine to Healthy.
func (r *Raven) sloOverrun() {
	r.obs.SLOOverruns.Inc()
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
func (r *Raven) scoresInsane() { r.setTrips(fallbackAfterTrips, "non-finite priority score") }
