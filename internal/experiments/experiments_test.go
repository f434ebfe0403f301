package experiments

import (
	"bytes"
	"strings"
	"testing"

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

func TestFig2aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test skipped in -short mode")
	}
	// Quick's training budget on traces a tenth of Quick's length,
	// planted where Runner.synthetic memoizes them: the assertions are
	// about the table's shape, not its values.
	r := NewRunner(Config{Quick: true, Seed: 7})
	for _, d := range synthTriple {
		tr := trace.Synthetic(trace.SynthConfig{
			Objects: 1000, Requests: 3000, Interarrival: d, Seed: r.Cfg.Seed + int64(d)*131,
		})
		tr.AnnotateNext()
		r.traces[synthKey(d, false)] = tr
	}
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
