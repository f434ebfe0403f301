package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

func simOptionsForTest() sim.Options {
	return sim.Options{WarmupFrac: synthWarmup}
}

// quickRunner is shared across tests; memoization makes later
// experiments cheap.
var quickRunner = NewRunner(Config{Quick: true, Seed: 7})

func TestReportFormatting(t *testing.T) {
	rep := &Report{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	rep.Add("one", 0.5)
	rep.Notes = append(rep.Notes, "note text")
	var buf bytes.Buffer
	rep.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "one", "0.5000", "note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	rep.CSV(&buf)
	if !strings.HasPrefix(buf.String(), "a,b\n") {
		t.Errorf("bad CSV header: %q", buf.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := quickRunner.Run("nope"); err == nil {
		t.Error("unknown ID should error")
	}
}

func TestAllIDsResolve(t *testing.T) {
	// Every declared ID must map to a function; run the cheap,
	// trace-analysis-only ones fully.
	for _, id := range []string{"fig8", "fig17", "fig18"} {
		rep, err := quickRunner.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s: empty report", id)
		}
	}
}

// plantedRunner is a quick-suite Runner whose §3.5 unit-size traces
// are a tenth of Quick's length, planted where Runner.synthetic
// memoizes them: Quick's training budget on short traces, for tests
// about a table's shape or about which runs agree, not about values.
func plantedRunner() *Runner {
	r := NewRunner(Config{Quick: true, Seed: 7})
	for _, d := range synthTriple {
		tr := trace.Synthetic(trace.SynthConfig{
			Objects: 1000, Requests: 3000, Interarrival: d, Seed: r.Cfg.Seed + int64(d)*131,
		})
		tr.AnnotateNext()
		r.traces[synthKey(d, false)] = tr
	}
	return r
}

func TestFig2aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test skipped in -short mode")
	}
	r := plantedRunner()
	rep, err := r.Run("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(fig2aPolicies) {
		t.Fatalf("rows %d, want %d", len(rep.Rows), len(fig2aPolicies))
	}
	// Raven row must exist and hold parseable hit ratios in (0,1).
	found := false
	for _, row := range rep.Rows {
		if row[0] == "raven" {
			found = true
			for _, cell := range row[1:] {
				if !strings.HasPrefix(cell, "0.") {
					t.Errorf("raven cell %q not a ratio", cell)
				}
			}
		}
	}
	if !found {
		t.Error("no raven row")
	}
}

func TestTable4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test skipped in -short mode")
	}
	rep, err := quickRunner.Run("tab4")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("want 3 cost scenarios, got %d", len(rep.Rows))
	}
}

func TestMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test skipped in -short mode")
	}
	r := NewRunner(Config{Quick: true, Seed: 7})
	t1 := r.synthetic(0, false)
	t2 := r.synthetic(0, false)
	if t1 != t2 {
		t.Error("traces should be memoized")
	}
	a := r.run(t1, "lru", 100, simOptionsForTest())
	b := r.run(t1, "lru", 100, simOptionsForTest())
	if a != b {
		t.Error("results should be memoized")
	}
}

// TestArmAtSuiteValueIsBaseRun: an experiment arm is the registry Raven
// of polOpts plus the one knob it varies, so at the suite's own value
// of that knob it replays the run it is compared with bit for bit (the
// same OHR and eviction count). On the planted unit-size traces the
// base is Fig. 2a's raven cell, and the arms are Fig. 6's M and each
// ablation sweep; on a small production trace, Fig. 5's no-survival
// arm with DisableSurvival cleared replays Fig. 5's raven run.
func TestArmAtSuiteValueIsBaseRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test skipped in -short mode")
	}
	same := func(t *testing.T, arm, base *sim.Result) {
		t.Helper()
		if arm.OHR != base.OHR || arm.Stats.Evictions != base.Stats.Evictions {
			t.Errorf("arm OHR %v after %d evictions, base run %v after %d",
				arm.OHR, arm.Stats.Evictions, base.OHR, base.Stats.Evictions)
		}
	}
	r := plantedRunner()
	// The quick suite's value of each knob (trainShape, polOpts).
	const suiteM = 30
	suite := map[string]int{"candidates": 64, "mixtureK": 4, "gruHidden": 8, "window": 8}
	fig2aOpts := sim.Options{WarmupFrac: synthWarmup, RankOrderEvery: 10}

	if !slices.Contains(residualMs, suiteM) {
		t.Errorf("Fig. 6 sweeps M over %v, without the suite's %d", residualMs, suiteM)
	}
	for _, d := range synthTriple {
		tr := r.synthetic(d, false)
		base := r.run(tr, "raven", synthUnitCapacity, fig2aOpts)
		t.Run("fig6/"+d.String(), func(t *testing.T) {
			same(t, r.unitArm(tr, residualM(suiteM)), base)
		})
	}
	tr := r.synthetic(trace.Uniform, false)
	base := r.run(tr, "raven", synthUnitCapacity, fig2aOpts)
	for _, k := range ablationKnobs {
		v, ok := suite[k.name]
		if !ok || !slices.Contains(k.values, v) {
			t.Errorf("ablation %s sweeps %v, without the suite's value", k.name, k.values)
			continue
		}
		t.Run("ablations/"+k.name, func(t *testing.T) {
			same(t, r.unitArm(tr, func(o *policy.Options) { k.set(o, tr, v) }), base)
		})
	}

	t.Run("fig5", func(t *testing.T) {
		p := fig5Presets[0]
		tr := trace.ProductionTrace(p, 0.01, r.Cfg.Seed)
		tr.AnnotateNext()
		r.traces["prod/"+string(p)] = tr
		with := r.prodRun(p, "raven", smallFrac)
		cleared := r.replay(tr, "raven", capFor(tr, smallFrac), r.prodOpts(p), func(o *policy.Options) {
			noSurvival(o)
			o.Raven.DisableSurvival = false
		})
		same(t, cleared, with)
	})
}
