package obs

// RavenObs is the learning policy's model-lifecycle observability
// surface: rollbacks, health transitions, fallback activity, training
// cost, and checkpoint accounting. Raven updates it inline from its (single)
// policy goroutine; the atomic metric types keep concurrent METRICS
// snapshots safe. Attach one via core.Config.Obs and register it on
// the server/sim registry so operators can watch a learned policy
// degrade and recover instead of silently going insane.
type RavenObs struct {
	// Rollbacks counts trainings abandoned by the guard (weights
	// restored to the pre-fit snapshot or the previous good network).
	Rollbacks Counter
	// GuardTrips counts individual guard trips, including those that
	// did not change the health state.
	GuardTrips Counter
	// FallbackEvictions counts evictions decided by the LRU fallback
	// while the policy was in the Fallback health state.
	FallbackEvictions Counter
	// TrainEpochs and TrainSequences sum nn.TrainResult.Epochs and
	// .Sequences over every fit that ran, rolled back or not: the
	// training cost in units that need no clock.
	TrainEpochs    Counter
	TrainSequences Counter

	// CkptSaves counts checkpoint generations written; CkptErrors
	// counts failed save/load attempts; CkptCorruptSkipped counts
	// corrupt generations skipped while resuming.
	CkptSaves          Counter
	CkptErrors         Counter
	CkptCorruptSkipped Counter

	// Health is the current health state (0 healthy, 1 degraded,
	// 2 fallback); HealthTransitions counts state changes.
	Health            Gauge
	HealthTransitions Counter

	// SLOOverruns counts eviction decisions abandoned because they
	// exceeded core.Config.DecisionBudget (served from LRU instead).
	SLOOverruns Counter
	// ScoreCacheHits counts sampled eviction candidates whose cached
	// priority score was still valid; ScoreRescores counts candidates
	// that had to be re-embedded/re-predicted — every candidate under the
	// joint win count, which caches nothing. Their sum is the total
	// number of candidates Victim considered.
	ScoreCacheHits Counter
	ScoreRescores  Counter

	// HistoryRecords is how many keys the policy's record table holds
	// (resident or not), HistoryResident how many of them are cached,
	// and HistoryDropped counts records the table's bound has dropped —
	// the "is anything growing" triple. Summed over shards; written only
	// where a count changes (new key, drop, admit, evict), never per hit.
	HistoryRecords  Gauge
	HistoryResident Gauge
	HistoryDropped  Counter
}

// Register adds every RavenObs metric to r under prefix (e.g.
// "raven"), in a fixed order so snapshots stay deterministic.
func (ro *RavenObs) Register(r *Registry, prefix string) {
	r.adoptCounter(prefix+".rollbacks", &ro.Rollbacks)
	r.adoptCounter(prefix+".guard_trips", &ro.GuardTrips)
	r.adoptCounter(prefix+".fallback_evictions", &ro.FallbackEvictions)
	r.adoptCounter(prefix+".ckpt_saves", &ro.CkptSaves)
	r.adoptCounter(prefix+".ckpt_errors", &ro.CkptErrors)
	r.adoptCounter(prefix+".ckpt_corrupt_skipped", &ro.CkptCorruptSkipped)
	r.adoptGauge(prefix+".health", &ro.Health)
	r.adoptCounter(prefix+".health_transitions", &ro.HealthTransitions)
	r.adoptCounter(prefix+".slo_overruns", &ro.SLOOverruns)
	r.adoptCounter(prefix+".score_cache_hits", &ro.ScoreCacheHits)
	r.adoptCounter(prefix+".score_rescores", &ro.ScoreRescores)
	r.adoptCounter(prefix+".train_epochs", &ro.TrainEpochs)
	r.adoptCounter(prefix+".train_sequences", &ro.TrainSequences)
	r.adoptGauge(prefix+".history_records", &ro.HistoryRecords)
	r.adoptGauge(prefix+".history_resident", &ro.HistoryResident)
	r.adoptCounter(prefix+".history_dropped", &ro.HistoryDropped)
}
