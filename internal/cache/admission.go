package cache

import (
	"raven/internal/obs"
	"raven/internal/sketch"
)

// This file is the admission front-end: the typed admission seam
// (Decision / Admitter) and the composable pipeline stages — the
// CM-sketch + Bloom doorkeeper frequency front and the MDN
// predicted-reuse check — that policy.Options.Admission wires in front
// of any eviction policy.

// Canonical reject reasons, re-exported from obs (which defines them
// next to the per-reason metric names) so decisions and metrics can
// never drift apart.
const (
	RejectTooLarge       = obs.ReasonTooLarge
	RejectNoVictim       = obs.ReasonNoVictim
	RejectPolicy         = obs.ReasonPolicy
	RejectSizeThreshold  = obs.ReasonSizeThreshold
	RejectDoorkeeper     = obs.ReasonDoorkeeper
	RejectFrequency      = obs.ReasonFrequency
	RejectPredictedReuse = obs.ReasonPredictedReuse
)

// Decision is the typed result of an admission check: a bare boolean
// could not express WHY an object was refused, so reject reasons would
// be invisible to operators and stages could not be chained without
// losing information.
type Decision struct {
	// Admit reports whether the object may be inserted.
	Admit bool
	// Reason names the rejecting stage when Admit is false (one of the
	// Reject* constants, or any other short stable string — unknown
	// reasons count under cache.admit_rejects.other). Empty on accept.
	Reason string
}

// Accepted is the accepting Decision.
var Accepted = Decision{Admit: true}

// Reject returns a rejecting Decision carrying reason.
func Reject(reason string) Decision { return Decision{Reason: reason} }

// Admitter is the admission seam: an optional Policy
// extension (or standalone pipeline stage) consulted before a missed
// object is inserted. Implementations may update internal state
// (sketches, doorkeepers) on every call; the engine calls Admit at
// most once per miss.
type Admitter interface {
	Admit(req Request) Decision
}

// AdmitterFunc adapts a function to the Admitter interface.
type AdmitterFunc func(req Request) Decision

// Admit implements Admitter.
func (f AdmitterFunc) Admit(req Request) Decision { return f(req) }

// PolicyAdmit runs p's admission control over req: its Admit when it
// is an Admitter, else accept. It is the engine's single consumption
// point, so every policy flows through one code path.
func PolicyAdmit(p Policy, req Request) Decision {
	if a, ok := p.(Admitter); ok {
		return a.Admit(req)
	}
	return Accepted
}

// Chain composes admission stages into one Admitter: every stage must
// accept, and the first rejecting stage's reason is the pipeline's.
// Later stages are not consulted after a reject, so their sketch state
// only observes objects that survived the earlier filters.
func Chain(stages ...Admitter) Admitter {
	return AdmitterFunc(func(req Request) Decision {
		for _, s := range stages {
			if d := s.Admit(req); !d.Admit {
				return d
			}
		}
		return Accepted
	})
}

// SketchAdmitter is the frequency front of the admission pipeline: a
// Bloom doorkeeper absorbs first sightings (one-hit wonders never
// reach the sketch) and a conservative-update CM-sketch counts
// repeats. An object is admitted once its estimated frequency —
// doorkeeper bit included — reaches sketchMinFreq. The doorkeeper
// resets two ways: on its own once it has absorbed its capacity of
// distinct keys (the sketch keeps its counts), and with the sketch's
// periodic halving (sketch.CountMin.OnAge), so long replays decay stale
// popularity instead of saturating.
//
// The front is sized in objects, and the objects are the cache's: behind
// WithAdmission it reads the resident count of the cache it fronts and
// re-fits itself to it at doorkeeper resets (refit). Standalone it keeps
// its minEntries sizing.
type SketchAdmitter struct {
	door *sketch.Bloom
	sk   *sketch.CountMin

	entries   int        // the object count door and sk are sized for
	residents *int       // the fronted cache's resident count; nil standalone
	gauge     *obs.Gauge // reports heldBytes at every sizing; nil when detached
}

// sketchMinFreq is the admission threshold: the doorkeeper absorbs the
// first sighting, the second passes.
const sketchMinFreq = 2

// minEntries is the smallest object count the front is sized for, and
// its size before the cache it fronts holds anything.
const minEntries = 64

// NewSketchAdmitter builds the front at minEntries. Behind WithAdmission
// it grows to the cache's resident count at its first doorkeeper reset.
func NewSketchAdmitter() *SketchAdmitter {
	a := &SketchAdmitter{entries: minEntries, door: sketch.NewBloom(16 * minEntries)}
	a.newSketch()
	return a
}

// newSketch builds a zeroed CM-sketch for a.entries objects: 4 rows of
// 4x entries four-bit counters, aging every 16x entries increments —
// TinyLFU's sample window W, for which the doorkeeper is sized too. The
// doorkeeper must remember a full aging period's worth of distinct keys,
// or it self-resets faster than typical reuse distances and nothing ever
// recurs "within" it. That is 20 B of doorkeeper (10 bits per window
// key) and 8 B of sketch per entry: 28 B.
func (a *SketchAdmitter) newSketch() {
	window := 16 * a.entries
	a.sk = sketch.NewCountMin(4, 4*a.entries, uint64(window))
	// Aging halves sketch counters; the doorkeeper's "seen once" bits
	// are half-counts too and must decay with them, or every object
	// ever seen would keep its +1 forever.
	a.sk.OnAge = a.door.Reset
	if a.gauge != nil {
		a.gauge.Set(a.heldBytes())
	}
}

// refit re-sizes the front to the fronted cache's resident count n =
// max(minEntries, residents), called after every doorkeeper reset. It
// rebuilds only when the current sizing has left [7n/8, 8n/7]: above it
// the front would hold more than 32 B (28 B x 8/7) per resident object,
// below it the sample window would fall more than an eighth short of
// 16n. A steady cache therefore never rebuilds and its sketch keeps
// halving; a rebuild starts an empty doorkeeper and a zeroed sketch.
func (a *SketchAdmitter) refit() {
	if a.residents == nil {
		return
	}
	n := max(minEntries, *a.residents)
	if 7*a.entries <= 8*n && 7*n <= 8*a.entries {
		return
	}
	a.entries = n
	a.door.Resize(16 * n) // counts as a reset: Resets keeps counting up
	a.newSketch()
}

// heldBytes returns what the doorkeeper and the sketch hold.
func (a *SketchAdmitter) heldBytes() int64 { return int64(a.door.Bytes() + a.sk.Bytes()) }

// setGauge reports heldBytes on g now and at every rebuild; nil
// detaches.
func (a *SketchAdmitter) setGauge(g *obs.Gauge) {
	a.gauge = g
	if g != nil {
		g.Set(a.heldBytes())
	}
}

// Admit implements Admitter: observe the sighting, then admit when the
// estimated frequency reaches the threshold. A doorkeeper reset during
// the sighting re-fits the front after the decision is made, so the
// decision is the one the current sizing gives.
func (a *SketchAdmitter) Admit(req Request) Decision {
	k := uint64(req.Key)
	gen := a.door.Resets()
	seen := a.door.AddIfMissing(k)
	if seen {
		a.sk.Add(k)
	}
	f := a.sk.Estimate(k)
	if a.door.Resets() == gen {
		f++ // the doorkeeper holds k: AddIfMissing set its bits and no reset has cleared them
	} else {
		a.refit()
	}
	if f >= sketchMinFreq {
		return Accepted
	}
	if !seen {
		return Reject(RejectDoorkeeper)
	}
	return Reject(RejectFrequency)
}

// ReusePredictor is implemented by learned policies (core.Raven) that
// can predict an object's next arrival on the trace's virtual clock.
// ok is false when no usable prediction exists (no trained model, no
// history, degraded health); admission then accepts rather than
// guessing.
type ReusePredictor interface {
	PredictNextArrival(req Request) (at int64, ok bool)
}

// ReuseAdmitter is the MDN stage of the admission pipeline: reject
// when the model's predicted next arrival falls beyond the object's
// expected cache lifetime — the object would be evicted before it is
// requested again, so inserting it can only displace better bytes.
//
// The expected lifetime is the cache's characteristic time, estimated
// online from the admission stream itself: the virtual time to turn
// the cache over once at the accepted-byte rate (capacity x elapsed /
// acceptedBytes). Everything is derived from request timestamps and
// byte counts, so replays are bit-exact.
type ReuseAdmitter struct {
	pred     ReusePredictor
	capacity int64

	begun    bool
	t0       int64
	accepted int64
}

// NewReuseAdmitter builds the predicted-reuse stage for a cache of the
// given byte capacity.
func NewReuseAdmitter(pred ReusePredictor, capacity int64) *ReuseAdmitter {
	return &ReuseAdmitter{pred: pred, capacity: capacity}
}

// lifetime returns the expected residency lifetime in virtual ticks.
// ok is false until the admission stream has accepted one full cache
// turnover of bytes — before that the estimate would be noise, so the
// stage abstains.
func (a *ReuseAdmitter) lifetime(now int64) (float64, bool) {
	if a.accepted < a.capacity {
		return 0, false
	}
	elapsed := now - a.t0
	if elapsed <= 0 {
		return 0, false
	}
	return float64(elapsed) * float64(a.capacity) / float64(a.accepted), true
}

// Admit implements Admitter.
func (a *ReuseAdmitter) Admit(req Request) Decision {
	if !a.begun {
		a.begun = true
		a.t0 = req.Time
	}
	if lt, ok := a.lifetime(req.Time); ok {
		if next, predicted := a.pred.PredictNextArrival(req); predicted &&
			float64(next-req.Time) > lt {
			return Reject(RejectPredictedReuse)
		}
	}
	a.accepted += req.Size
	return Accepted
}

// fronted wraps a policy with an admission pipeline, chaining the
// front's decision with the inner policy's own admission. It is how policy.Options.Admission attaches the pipeline:
// the wrapper travels through every existing construction seam
// (Factory, PerShard, ShardFactory, the server's NewPolicy) untouched.
// It sees every OnAdmit and OnEvict of the cache it serves, so it counts
// that cache's resident objects for the frequency stage to size itself by.
type fronted struct {
	Policy
	front     Admitter
	freq      *SketchAdmitter // the frequency stage, if the pipeline has one
	residents int
}

// WithAdmission returns inner fronted by the given pipeline stages.
// With no stages inner is returned unchanged. A SketchAdmitter among the
// stages is sized from then on by the resident count of the cache the
// returned policy serves; fronting two policies with one SketchAdmitter
// is a mistake.
func WithAdmission(inner Policy, stages ...Admitter) Policy {
	if len(stages) == 0 {
		return inner
	}
	front := stages[0]
	if len(stages) > 1 {
		front = Chain(stages...)
	}
	f := &fronted{Policy: inner, front: front}
	for _, s := range stages {
		if d, ok := s.(*SketchAdmitter); ok {
			d.residents = &f.residents
			f.freq = d
		}
	}
	return f
}

// Admit implements Admitter: front stages first, then the inner
// policy's own admission.
func (f *fronted) Admit(req Request) Decision {
	if d := f.front.Admit(req); !d.Admit {
		return d
	}
	return PolicyAdmit(f.Policy, req)
}

// OnAdmit counts the inserted object and forwards to the inner policy.
func (f *fronted) OnAdmit(req Request) {
	f.residents++
	f.Policy.OnAdmit(req)
}

// OnEvict counts the removed object and forwards to the inner policy.
func (f *fronted) OnEvict(key Key) {
	f.residents--
	f.Policy.OnEvict(key)
}

// setAdmitGauge reports the frequency stage's bytes on g (nil detaches).
func (f *fronted) setAdmitGauge(g *obs.Gauge) {
	if f.freq != nil {
		f.freq.setGauge(g)
	}
}

// Unwrap returns the wrapped policy, so callers that type-assert for
// concrete policies (e.g. *core.Raven checkpoint status) can reach
// through the front.
func (f *fronted) Unwrap() Policy { return f.Policy }

// MetadataBytesPerObject implements Footprinter, forwarding to the
// inner policy (0 when it does not report a footprint).
func (f *fronted) MetadataBytesPerObject() int64 {
	if fp, ok := f.Policy.(Footprinter); ok {
		return fp.MetadataBytesPerObject()
	}
	return 0
}

// Unwrap returns the innermost policy by following Unwrap methods, for
// callers that inspect concrete policy state behind wrappers.
func Unwrap(p Policy) Policy {
	for {
		u, ok := p.(interface{ Unwrap() Policy })
		if !ok {
			return p
		}
		p = u.Unwrap()
	}
}
