package policy

import (
	"fmt"

	"raven/internal/cache"
)

// Admission modes accepted by AdmissionOptions.Mode (and the binaries'
// -admit flag).
const (
	// AdmitOff disables the front-end (the default; also "").
	AdmitOff = "off"
	// AdmitDoorkeeper fronts the policy with the CM-sketch + Bloom
	// doorkeeper frequency filter alone (cache.Front without a
	// predictor).
	AdmitDoorkeeper = "doorkeeper"
	// AdmitLearned follows the doorkeeper with the MDN predicted-reuse
	// check (cache.Front with the policy as its predictor): an object
	// whose predicted next arrival falls beyond its expected cache
	// lifetime is rejected. Requires a policy that implements
	// cache.ReusePredictor (Raven).
	AdmitLearned = "learned"
)

// AdmissionOptions selects the admission front-end of Options. The
// zero value is off and leaves the built policy untouched, so
// replays without admission are bit-identical to builds that predate
// the front-end. All state the front keeps (sketch counters,
// doorkeeper bits, the online lifetime estimate) is derived from the
// request stream alone — no wall clock, no RNG — so fronted replays
// are deterministic.
type AdmissionOptions struct {
	// Mode selects the front: "" or AdmitOff disables it,
	// AdmitDoorkeeper installs the frequency front, AdmitLearned follows
	// the frequency front with the predicted-reuse check.
	Mode string
}

// Validate reports a Mode front would refuse: anything but "",
// AdmitOff, AdmitDoorkeeper and AdmitLearned. A binary checks its
// -admit flag with it before it builds anything.
func (a AdmissionOptions) Validate() error {
	switch a.Mode {
	case "", AdmitOff, AdmitDoorkeeper, AdmitLearned:
		return nil
	}
	return fmt.Errorf("policy: unknown admission mode %q (known: off, doorkeeper, learned)", a.Mode)
}

// front wraps p with the configured admission front. Off returns p
// unchanged; unknown modes and learned-mode requests for policies that
// cannot predict reuse fail loudly rather than silently admitting all.
func (a AdmissionOptions) front(p cache.Policy, o Options) (cache.Policy, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	switch a.Mode {
	case AdmitDoorkeeper:
		return cache.Front(p, nil, 0), nil
	case AdmitLearned:
		pred, ok := cache.Unwrap(p).(cache.ReusePredictor)
		if !ok {
			return nil, fmt.Errorf("policy: admission mode %q needs a policy that predicts reuse (raven/raven-ohr), got %s",
				a.Mode, p.Name())
		}
		return cache.Front(p, pred, o.Capacity), nil
	}
	return p, nil
}
