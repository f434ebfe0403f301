// Package core implements Raven, the paper's contribution (§3–4): a
// Belady-guided eviction policy that learns each object's
// residual-time distribution with a mixture density network and
// evicts the cached object with the largest probability of having the
// farthest next arrival, estimated by Monte Carlo order statistics
// (Eq. 1c). A size-weighted variant of the priority score targets the
// object hit ratio (§3.4).
package core

import (
	"time"

	"raven/internal/nn"
	"raven/internal/obs"
)

// Goal selects the optimization target of §3.4.
type Goal int

// Optimization goals.
const (
	// GoalBHR maximizes byte hit ratio: evict the object most likely
	// to arrive farthest in the future (the original priority score).
	GoalBHR Goal = iota
	// GoalOHR maximizes object hit ratio: weight the priority score by
	// object size so large far-future objects are evicted first.
	GoalOHR
)

// Config parameterizes a Raven policy. The zero value plus a positive
// TrainWindow is usable; defaults follow §4 and §5.1.3 (scaled to the
// CPU-only substrate per DESIGN.md).
type Config struct {
	Goal Goal

	// CandidateSample is the number of cached objects sampled as
	// eviction candidates (§4.3.1; default 64).
	CandidateSample int
	// ResidualSamples is M, the Monte Carlo draws per candidate the
	// joint win count estimates the priority score from (§4.3.2;
	// default 100). The score cache draws none.
	ResidualSamples int

	// TrainWindow is the elapsed virtual time between retrainings
	// (§4.1, "1 day" in the paper). Required.
	TrainWindow int64
	// Capacity is the byte capacity of the cache the policy serves. The
	// training sample admits unique objects up to 5 × Capacity bytes
	// (§4.1); values <= 0 leave the sample uncapped.
	Capacity int64
	// MaxTrainObjects additionally caps the number of sampled objects
	// (0 = default 4000), keeping CPU training time bounded.
	MaxTrainObjects int

	// Net configures the mixture density network; zero dimensions take
	// nn's (nn.Config.Defaults). A zero TimeScale is inferred from the
	// first window's mean interarrival time.
	Net nn.Config
	// Train configures the optimization loop; zero fields take nn's
	// served budget (nn.TrainConfig.Defaults). Every fit runs under nn's
	// training guard.
	Train nn.TrainConfig
	// DisableSurvival removes the survival-probability loss term (the
	// Fig. 5 ablation): each window trains on the same sequences with
	// their open intervals zeroed.
	DisableSurvival bool

	// ScoreCache selects Victim's score-cache estimator (DESIGN.md
	// "Inference fast path & SLO"): each resident object's priority
	// score is cached with a dirty-epoch stamp, Victim() re-embeds and
	// re-predicts only candidates whose history advanced since their
	// stamp, and dirty candidates are scored through fused batch
	// predicts. A score is lastSeen + TimeScale·exp(Σ_k w_k·μ_k), the
	// next arrival at the mixture's mean log-residual, computed in
	// closed form with no random draw. It ranks candidates by that
	// instead of the joint win-count estimator, so it is a deliberate
	// approximation (off by default; the servers turn it on).
	ScoreCache bool
	// Inference32 routes every prediction Victim makes through the
	// float32 kernels of a frozen weight copy (nn.Freeze32). Training
	// stays float64. Off by default so exact-reproduction runs stay
	// bit-identical to the f64 path.
	Inference32 bool
	// DecisionBudget is the per-eviction-decision latency SLO. When
	// positive, Victim() checks the wall clock at candidate-loop
	// boundaries; a decision that overruns the budget is abandoned and
	// served from the LRU fallback list, counted in raven.slo_overruns,
	// and sloTripsBeforeDegrade consecutive overruns trip the health
	// machine exactly like a diverged training. 0 (the default)
	// disables the deadline — and keeps the wall clock off the
	// decision path entirely, which deterministic replay tests rely on.
	DecisionBudget time.Duration
	// evictFault, when non-nil, runs once per candidate Victim
	// predicts: the unexported seam this package's SLO overrun drills
	// inject decision latency through.
	evictFault func()

	// Checkpoint, when Dir is set, persists the trained model with
	// rotated, checksummed, atomically-written generations and
	// resumes from the newest valid one at construction.
	Checkpoint CheckpointConfig

	// TrainFaultWindows stops applying Train.Faults after this many
	// training windows (0 = inject for as long as Faults is set).
	// Fault-drill/test hook, like Train.Faults itself.
	TrainFaultWindows int

	// Trainer, when set, takes fits off the request path (DESIGN.md
	// "Model lifecycle & failure domains"): a closing window is handed
	// to it, serving keeps the model it has, and the shard's first
	// request after the fit finishes installs the result. A window that
	// closes while the shard's fit is unfinished is skipped
	// (TrainRecord.Skipped). Nil fits inline, under the shard lock, at
	// the window's close — what every replay does, since when a
	// trainer's fit finishes depends on the wall clock. Only
	// ravencached sets it.
	Trainer *nn.Trainer
	// fitHook, when non-nil, runs at the start of every fit, where the
	// fit runs: the unexported seam this package's tests hold a fit in
	// flight through.
	fitHook func()

	// Obs receives the policy's metrics (rollbacks, health transitions,
	// fallback evictions, checkpoint and record-table accounting). The
	// policy always counts: New gives a Raven built without one a
	// private block, and shards that should report together share one.
	Obs *obs.RavenObs

	Seed int64
}

// historyLen is the per-object ring of recent interarrival times kept
// for re-embedding after a model swap.
const historyLen = 16

// CheckpointConfig configures model persistence (internal/nn/ckpt).
type CheckpointConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every saves a generation after every N completed (non-diverged)
	// trainings (default 1).
	Every int
}

func (c *Config) defaults() {
	if c.CandidateSample == 0 {
		c.CandidateSample = 64
	}
	if c.ResidualSamples == 0 {
		c.ResidualSamples = 100
	}
	if c.MaxTrainObjects == 0 {
		c.MaxTrainObjects = 4000
	}
	// Hidden sizes the record table's embeddings and MaxSeq the window's
	// histories before the first network exists.
	c.Net.Defaults()
	c.Train.Defaults()
	if c.Checkpoint.Every == 0 {
		c.Checkpoint.Every = 1
	}
	if c.Obs == nil {
		c.Obs = new(obs.RavenObs)
	}
	if c.Train.Seed == 0 {
		c.Train.Seed = c.Seed + 1
	}
	if c.Net.Seed == 0 {
		c.Net.Seed = c.Seed + 2
	}
}
