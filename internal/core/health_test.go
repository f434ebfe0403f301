package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/nn/ckpt"
	"raven/internal/obs"
	"raven/internal/trace"
)

// TestHealthStateMachine drives the transitions directly and checks
// the log, the trip counter, and the obs mirrors.
func TestHealthStateMachine(t *testing.T) {
	ro := &obs.RavenObs{}
	r := New(Config{TrainWindow: 1, Seed: 1, Obs: ro})
	if r.Health() != Healthy {
		t.Fatalf("initial health %v, want healthy", r.Health())
	}

	r.guardTripped("first divergence")
	if r.Health() != Degraded {
		t.Fatalf("after 1 trip: %v, want degraded", r.Health())
	}
	r.guardTripped("second divergence")
	if r.Health() != Fallback {
		t.Fatalf("after 2 trips (fallbackAfterTrips): %v, want fallback", r.Health())
	}
	r.trainSucceeded()
	if r.Health() != Healthy {
		t.Fatalf("after clean training: %v, want healthy", r.Health())
	}
	r.scoresInsane()
	if r.Health() != Fallback {
		t.Fatalf("after insane scores: %v, want fallback immediately", r.Health())
	}

	wantLog := []struct{ from, to Health }{
		{Healthy, Degraded}, {Degraded, Fallback}, {Fallback, Healthy}, {Healthy, Fallback},
	}
	if len(r.HealthLog) != len(wantLog) {
		t.Fatalf("HealthLog has %d entries, want %d: %+v", len(r.HealthLog), len(wantLog), r.HealthLog)
	}
	for i, w := range wantLog {
		got := r.HealthLog[i]
		if got.From != w.from || got.To != w.to {
			t.Errorf("transition %d = %v->%v, want %v->%v", i, got.From, got.To, w.from, w.to)
		}
		if got.Reason == "" {
			t.Errorf("transition %d has no reason", i)
		}
	}
	if ro.Health.Load() != int64(Fallback) {
		t.Errorf("health gauge = %d, want %d", ro.Health.Load(), Fallback)
	}
	if ro.HealthTransitions.Load() != int64(len(wantLog)) {
		t.Errorf("health_transitions = %d, want %d", ro.HealthTransitions.Load(), len(wantLog))
	}
	if ro.GuardTrips.Load() != 2 {
		t.Errorf("guard_trips = %d, want 2", ro.GuardTrips.Load())
	}
}

// TestGuardTripsResetOnSuccess: fallbackAfterTrips counts consecutive
// diverged trainings; a success in between resets the counter so a
// single later trip only degrades.
func TestGuardTripsResetOnSuccess(t *testing.T) {
	r := New(Config{TrainWindow: 1, Seed: 1})
	for i := 0; i < fallbackAfterTrips; i++ {
		r.guardTripped("diverged")
	}
	r.trainSucceeded()
	r.guardTripped("c")
	if r.Health() != Degraded {
		t.Fatalf("trip after reset: %v, want degraded (counter was reset)", r.Health())
	}
}

func poisonNet(n *nn.Net) {
	for _, p := range n.Params() {
		for i := range p.W {
			p.W[i] = math.NaN()
		}
	}
}

// trainSmallRaven runs a short synthetic workload through a cache so
// the policy trains at least once.
func trainSmallRaven(t *testing.T, cfg Config) (*Raven, *cache.Sharded, *trace.Trace) {
	t.Helper()
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 100, Requests: 8000, Interarrival: trace.Poisson, Seed: 5,
	})
	if cfg.TrainWindow == 0 {
		cfg.TrainWindow = tr.Duration() / 4
	}
	if cfg.MaxTrainObjects == 0 {
		cfg.MaxTrainObjects = 200
	}
	if cfg.Net.Hidden == 0 {
		cfg.Net = nn.Config{Hidden: 6, MLPHidden: 8, K: 3}
	}
	if cfg.Train.MaxEpochs == 0 {
		cfg.Train = nn.TrainConfig{MaxEpochs: 4, Patience: 2}
	}
	if cfg.ResidualSamples == 0 {
		cfg.ResidualSamples = 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	r := New(cfg)
	c := cache.New(30, r)
	for _, req := range tr.Reqs {
		c.Handle(req)
	}
	if r.Net() == nil {
		t.Fatal("Raven never trained a model")
	}
	return r, c, tr
}

// TestVictimFallsBackOnInsaneScores poisons a trained model's weights
// with NaN and checks the next eviction (a) comes from the LRU tail,
// (b) flips health to Fallback, and (c) counts fallback evictions.
func TestVictimFallsBackOnInsaneScores(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	ro := &obs.RavenObs{}
	r, _, _ := trainSmallRaven(t, Config{Obs: ro})
	if r.Health() != Healthy {
		t.Fatalf("health %v after clean training, want healthy", r.Health())
	}
	poisonNet(r.Net())

	lruTail := r.lruTail()
	victim, ok := r.Victim()
	if !ok {
		t.Fatal("Victim returned none with a populated cache")
	}
	if victim != lruTail {
		t.Errorf("victim = %v, want LRU tail %v", victim, lruTail)
	}
	if r.Health() != Fallback {
		t.Fatalf("health %v after non-finite scores, want fallback", r.Health())
	}
	last := r.HealthLog[len(r.HealthLog)-1]
	if last.Reason != "non-finite priority score" {
		t.Errorf("transition reason = %q", last.Reason)
	}
	// In Fallback, further victims are LRU and counted.
	before := ro.FallbackEvictions.Load()
	if _, ok := r.Victim(); !ok {
		t.Fatal("Victim returned none in fallback")
	}
	if ro.FallbackEvictions.Load() <= before {
		t.Error("fallback eviction not counted")
	}
}

// TestCoreFaultCycleDegradesAndRecovers is the in-process version of
// the e2e drill: two fault windows diverge training (rolling back and
// reaching Fallback), then the injection stops and the next clean
// window restores Healthy with a fresh model.
func TestCoreFaultCycleDegradesAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	ro := &obs.RavenObs{}
	cfg := Config{
		Obs:               ro,
		TrainFaultWindows: 2,
	}
	cfg.Train = nn.TrainConfig{
		MaxEpochs: 4, Patience: 2,
		Faults: &nn.TrainFaults{NaNLossEpoch: 1},
	}
	r, _, _ := trainSmallRaven(t, cfg)

	rolledBack := 0
	for _, rec := range r.TrainStats {
		if rec.RolledBack {
			rolledBack++
		}
	}
	if rolledBack != 2 {
		t.Errorf("rolled-back windows = %d, want exactly the 2 fault windows", rolledBack)
	}
	if ro.Rollbacks.Load() != 2 {
		t.Errorf("raven.rollbacks = %d, want 2", ro.Rollbacks.Load())
	}
	// Training cost counts every fit that ran, the rolled-back ones too.
	var epochs, sequences int64
	for _, rec := range r.TrainStats {
		epochs += int64(rec.Result.Epochs)
		sequences += int64(rec.Result.Sequences)
	}
	if epochs == 0 || ro.TrainEpochs.Load() != epochs || ro.TrainSequences.Load() != sequences {
		t.Errorf("raven.train_epochs/train_sequences = %d/%d, TrainStats sums to %d/%d",
			ro.TrainEpochs.Load(), ro.TrainSequences.Load(), epochs, sequences)
	}
	if r.Health() != Healthy {
		t.Fatalf("final health %v, want healthy after faults stopped", r.Health())
	}
	// The log must witness the full cycle: down to Fallback, back up.
	sawFallback := false
	recovered := false
	for _, tr := range r.HealthLog {
		if tr.To == Fallback {
			sawFallback = true
		}
		if sawFallback && tr.To == Healthy {
			recovered = true
		}
	}
	if !sawFallback || !recovered {
		t.Errorf("HealthLog missing Fallback->Healthy cycle: %+v", r.HealthLog)
	}
}

// TestDiscardedNetVersionNotReused: side records keep embVer/scoreVer
// stamps from whatever network computed them. When a non-finite network
// is discarded, its replacement must start above every version already
// installed, or it would one day accept an embedding or score the
// discarded network computed.
func TestDiscardedNetVersionNotReused(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	r, c, tr := trainSmallRaven(t, Config{})
	v := r.Net().Version
	if v < 2 {
		t.Fatalf("model at Version %d after the warm-up replay, want >= 2", v)
	}
	poisonNet(r.Net())
	windows := len(r.TrainStats)
	for _, req := range tr.Reqs {
		req.Time += tr.Duration() + 1
		c.Handle(req)
		if len(r.TrainStats) > windows {
			break
		}
	}
	if len(r.TrainStats) == windows {
		t.Fatal("no window closed after the poisoning")
	}
	if r.Net() == nil || !r.Net().FiniteWeights() {
		t.Fatal("the non-finite network was not replaced")
	}
	if got := r.Net().Version; got <= v {
		t.Errorf("replacement network at Version %d, want > %d (the discarded one's)", got, v)
	}
}

// TestWindowCountOutlivesTrainStats: the per-window shuffle seed and
// the fault-drill cut-off count windows, not len(TrainStats), so a
// caller (or a future ring buffer) that drops old records trains the
// same models.
func TestWindowCountOutlivesTrainStats(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	run := func(keep int) []byte {
		tr := trace.Synthetic(trace.SynthConfig{
			Objects: 100, Requests: 8000, Interarrival: trace.Poisson, Seed: 5,
		})
		r := New(Config{
			TrainWindow: tr.Duration() / 5, MaxTrainObjects: 200, ResidualSamples: 20, Seed: 7,
			Net:               nn.Config{Hidden: 6, MLPHidden: 8, K: 3},
			Train:             nn.TrainConfig{MaxEpochs: 3, Patience: 2, Faults: &nn.TrainFaults{NaNLossEpoch: 1}},
			TrainFaultWindows: 2,
		})
		c := cache.New(30, r)
		for _, req := range tr.Reqs {
			c.Handle(req)
			if keep > 0 && len(r.TrainStats) > keep {
				r.TrainStats = r.TrainStats[len(r.TrainStats)-keep:]
			}
		}
		if r.Net() == nil {
			t.Fatal("the fault drill never ended: no model was trained")
		}
		var buf bytes.Buffer
		if err := r.Net().Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(0), run(1)) {
		t.Error("dropping old TrainStats records changed the trained model")
	}
}

// TestCheckpointResume trains with a checkpoint directory, then
// builds fresh policies over the same directory: one resumes the
// newest generation; after corrupting it, the next resumes the
// previous generation and reports the skip.
func TestCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	dir := t.TempDir()
	ro := &obs.RavenObs{}
	cfg := Config{Obs: ro}
	cfg.Checkpoint.Dir = dir
	r, _, _ := trainSmallRaven(t, cfg)
	if ro.CkptSaves.Load() < 2 {
		t.Fatalf("ckpt_saves = %d, want >= 2 (one per completed training)", ro.CkptSaves.Load())
	}
	if r.CkptErr != nil {
		t.Fatalf("checkpoint error during training: %v", r.CkptErr)
	}

	cfg2 := Config{TrainWindow: 1 << 40}
	cfg2.Checkpoint.Dir = dir
	r2 := New(cfg2)
	if r2.Net() == nil {
		t.Fatal("resume did not install a model")
	}
	if r2.CkptResume.Path == "" || r2.CkptResume.Seq < 0 {
		t.Fatalf("resume info %+v, want a loaded generation", r2.CkptResume)
	}
	if r2.Net().Version != r.Net().Version {
		t.Errorf("resumed Version %d, want %d", r2.Net().Version, r.Net().Version)
	}

	// Corrupt the newest generation; resume must fall back one.
	if err := ckpt.FlipByte(r2.CkptResume.Path, -2); err != nil {
		t.Fatal(err)
	}
	ro3 := &obs.RavenObs{}
	cfg3 := Config{TrainWindow: 1 << 40, Obs: ro3}
	cfg3.Checkpoint.Dir = dir
	r3 := New(cfg3)
	if r3.Net() == nil {
		t.Fatal("resume with one corrupt generation did not fall back to the previous one")
	}
	if r3.CkptResume.CorruptSkipped != 1 || r3.CkptResume.Seq >= r2.CkptResume.Seq {
		t.Errorf("resume info %+v, want 1 corrupt skipped and an older generation", r3.CkptResume)
	}
	if ro3.CkptCorruptSkipped.Load() != 1 {
		t.Errorf("ckpt_corrupt_skipped = %d, want 1", ro3.CkptCorruptSkipped.Load())
	}
	if r3.CkptErr != nil {
		t.Errorf("fallback resume recorded an error: %v", r3.CkptErr)
	}
}

// TestCheckpointResumeAllCorrupt: every generation corrupt → cold
// start with CkptErr recorded, never a crash or a poisoned net.
func TestCheckpointResumeAllCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := Config{}
	cfg.Checkpoint.Dir = dir
	r, _, _ := trainSmallRaven(t, cfg)
	st, err := ckpt.Open(dir, ckpt.Options{Prefix: "raven"})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := st.Generations()
	if err != nil || len(gens) == 0 {
		t.Fatalf("generations: %v err=%v", gens, err)
	}
	for _, g := range gens {
		if err := ckpt.FlipByte(g.Path, -2); err != nil {
			t.Fatal(err)
		}
	}
	_ = r
	cfg2 := Config{TrainWindow: 1 << 40}
	cfg2.Checkpoint.Dir = dir
	r2 := New(cfg2)
	if r2.Net() != nil {
		t.Fatal("all-corrupt resume installed a model")
	}
	if !errors.Is(r2.CkptErr, nn.ErrCorrupt) {
		t.Errorf("CkptErr = %v, want ErrCorrupt", r2.CkptErr)
	}
	if r2.CkptResume.CorruptSkipped != len(gens) {
		t.Errorf("CorruptSkipped = %d, want %d", r2.CkptResume.CorruptSkipped, len(gens))
	}
}

// TestMeanTauIgnoresNonFinite covers the satellite fix: TimeScale
// derivation must use only finite, positive interarrivals.
func TestMeanTauIgnoresNonFinite(t *testing.T) {
	data := []nn.Sequence{
		{Taus: []float64{10, math.NaN(), 20, math.Inf(1), 0, -5, 30}},
	}
	if got := meanTau(data, 7); got != 20 {
		t.Errorf("meanTau = %v, want 20 (mean of 10,20,30)", got)
	}
	// Nothing usable -> sanitized fallback.
	junk := []nn.Sequence{{Taus: []float64{math.NaN(), math.Inf(-1), 0}}}
	if got := meanTau(junk, 7); got != 7 {
		t.Errorf("meanTau fallback = %v, want 7", got)
	}
	if got := meanTau(nil, math.NaN()); got != 1 {
		t.Errorf("meanTau with NaN fallback = %v, want sanitized 1", got)
	}
	if got := meanTau(nil, -3); got != 1 {
		t.Errorf("meanTau with negative fallback = %v, want sanitized 1", got)
	}
}
