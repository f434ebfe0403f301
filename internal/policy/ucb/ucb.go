// Package ucb implements a multi-armed-bandit eviction policy in the
// spirit of MLCache (Costa & Pazos), one of the paper's 14 baselines:
// each eviction, a UCB1 bandit picks among three eviction criteria
// (recency, frequency, size); the arm is rewarded when its evicted
// object is not re-requested soon afterwards.
package ucb

import (
	"math"

	"raven/internal/cache"
	"raven/internal/stats"
)

const (
	numArms      = 3
	armRecency   = 0
	armFrequency = 1
	armSize      = 2

	sampleN = 64
	// rewardWindow: an eviction is judged "good" if the object is not
	// re-requested within this many subsequent requests.
	rewardWindow = 4096
)

type meta struct {
	lastAccess int64
	freq       int64
	size       int64
}

type pendingEviction struct {
	key     cache.Key
	arm     int
	step    int64
	settled bool
}

// UCB is the bandit-driven eviction policy.
type UCB struct {
	set     *cache.SampledSet[meta]
	rng     *stats.RNG
	scr     []int
	step    int64
	pulls   [numArms]float64
	rewards [numArms]float64
	total   float64

	pending []*pendingEviction
	ghost   map[cache.Key]*pendingEviction
}

// New returns a UCB policy.
func New(seed int64) *UCB {
	return &UCB{
		set:   cache.NewSampledSet[meta](),
		rng:   stats.NewRNG(seed),
		ghost: make(map[cache.Key]*pendingEviction),
	}
}

// Name implements cache.Policy.
func (p *UCB) Name() string { return "ucb" }

// OnHit implements cache.Policy.
func (p *UCB) OnHit(req cache.Request) {
	p.step++
	p.settle()
	if m := p.set.Ref(req.Key); m != nil {
		m.freq++
		m.lastAccess = req.Time
	}
}

// OnMiss penalizes the arm that evicted this key recently (reward 0),
// if any.
func (p *UCB) OnMiss(req cache.Request) {
	p.step++
	p.settle()
	if pe, ok := p.ghost[req.Key]; ok {
		if !pe.settled {
			p.credit(pe.arm, 0)
			pe.settled = true
		}
		delete(p.ghost, req.Key)
	}
}

// settle grants reward 1 to evictions that aged out of the window
// without a re-request.
func (p *UCB) settle() {
	for len(p.pending) > 0 && p.step-p.pending[0].step > rewardWindow {
		pe := p.pending[0]
		p.pending[0] = nil
		p.pending = p.pending[1:]
		if !pe.settled {
			p.credit(pe.arm, 1)
			pe.settled = true
			if cur, ok := p.ghost[pe.key]; ok && cur == pe {
				delete(p.ghost, pe.key)
			}
		}
	}
}

func (p *UCB) credit(arm int, reward float64) {
	p.pulls[arm]++
	p.rewards[arm] += reward
	p.total++
}

// OnAdmit implements cache.Policy.
func (p *UCB) OnAdmit(req cache.Request) {
	p.set.Add(req.Key, meta{lastAccess: req.Time, freq: 1, size: req.Size})
}

// OnEvict implements cache.Policy.
func (p *UCB) OnEvict(key cache.Key) { p.set.Remove(key) }

// chooseArm applies UCB1 over the three criteria.
func (p *UCB) chooseArm() int {
	for a := 0; a < numArms; a++ {
		if p.pulls[a] == 0 { //lint:allow float-equal exact zero means the arm was never pulled
			return a
		}
	}
	best, bestV := 0, math.Inf(-1)
	for a := 0; a < numArms; a++ {
		v := p.rewards[a]/p.pulls[a] + math.Sqrt(2*math.Log(p.total+1)/p.pulls[a])
		if v > bestV {
			bestV = v
			best = a
		}
	}
	return best
}

// Victim implements cache.Policy.
func (p *UCB) Victim() (cache.Key, bool) {
	if p.set.Len() == 0 {
		return 0, false
	}
	arm := p.chooseArm()
	p.scr = p.set.Sample(p.rng, sampleN, p.scr)
	var victim cache.Key
	var bestScore float64
	first := true
	for _, i := range p.scr {
		k, m := p.set.At(i)
		var score float64
		switch arm {
		case armRecency:
			score = -float64(m.lastAccess) // oldest access evicted
		case armFrequency:
			score = -float64(m.freq) // least frequent evicted
		case armSize:
			score = float64(m.size) // largest evicted
		}
		if first || score > bestScore {
			bestScore = score
			victim = k
			first = false
		}
	}
	pe := &pendingEviction{key: victim, arm: arm, step: p.step}
	p.pending = append(p.pending, pe)
	p.ghost[victim] = pe
	return victim, true
}
