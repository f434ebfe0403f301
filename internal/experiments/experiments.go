// Package experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index). Each
// experiment is a method on Runner returning a Report — a printable,
// CSV-able table of the same rows/series the paper plots. Runs are
// memoized inside a Runner so experiments that share simulations
// (Fig. 9 / Fig. 10 / Table 2 / Table 8) pay for them once.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

// Config scales the experiment suite.
type Config struct {
	// Quick shrinks every workload and Raven's training effort so the
	// whole suite runs in roughly a minute (CI / go test -bench).
	Quick bool
	// Scale multiplies workload sizes (1.0 = default laptop scale used
	// for EXPERIMENTS.md; ignored when Quick).
	Scale float64
	// Seed drives all generators and policies.
	Seed int64
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (c *Config) defaults() {
	if c.Scale == 0 { //lint:allow float-equal zero Scale means unset; fill the default
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	Took   time.Duration
}

// Add appends a row, formatting each cell with %v.
func (r *Report) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s (took %v)\n", r.ID, r.Title, r.Took.Round(time.Millisecond))
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], c)
			} else {
				fmt.Fprint(w, c, "  ")
			}
		}
		fmt.Fprintln(w)
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the report as comma-separated values.
func (r *Report) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(r.Header, ","))
	for _, row := range r.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Runner executes experiments with memoized traces and simulation
// results.
type Runner struct {
	Cfg Config

	mu      sync.Mutex
	traces  map[string]*trace.Trace
	results map[string]*sim.Result
	err     error // first simulate failure since the last Run
}

// NewRunner creates a Runner.
func NewRunner(cfg Config) *Runner {
	cfg.defaults()
	return &Runner{
		Cfg:     cfg,
		traces:  make(map[string]*trace.Trace),
		results: make(map[string]*sim.Result),
	}
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Cfg.Log != nil {
		fmt.Fprintf(r.Cfg.Log, format+"\n", args...)
	}
}

// --- workload construction -------------------------------------------------

func (r *Runner) synthRequests() int {
	if r.Cfg.Quick {
		return 30000
	}
	return int(200000 * r.Cfg.Scale)
}

// synthKey names the memoized §3.5 trace of one interarrival law.
func synthKey(d trace.Interarrival, variable bool) string {
	return fmt.Sprintf("synth/%s/var=%v", d, variable)
}

// synthetic returns the memoized §3.5 trace for one interarrival law.
func (r *Runner) synthetic(d trace.Interarrival, variable bool) *trace.Trace {
	key := synthKey(d, variable)
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.traces[key]; ok {
		return t
	}
	t := trace.Synthetic(trace.SynthConfig{
		Objects:       1000,
		Requests:      r.synthRequests(),
		Interarrival:  d,
		VariableSizes: variable,
		Seed:          r.Cfg.Seed + int64(d)*131,
	})
	t.AnnotateNext()
	r.traces[key] = t
	return t
}

// production returns the memoized production-like trace of a preset.
func (r *Runner) production(p trace.ProductionPreset) *trace.Trace {
	key := "prod/" + string(p)
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.traces[key]; ok {
		return t
	}
	scale := 0.5 * r.Cfg.Scale
	if r.Cfg.Quick {
		scale = 0.05
	}
	r.logf("generating %s trace (scale %.2f)...", p, scale)
	t := trace.ProductionTrace(p, scale, r.Cfg.Seed)
	t.AnnotateNext()
	r.traces[key] = t
	return t
}

// capFor returns a cache capacity as a fraction of a trace's unique
// bytes, clamped to hold at least a handful of mean-size objects.
func capFor(t *trace.Trace, frac float64) int64 {
	c := int64(float64(t.UniqueBytes()) * frac)
	if c < 64 {
		c = 64
	}
	return c
}

// prodWarmup is the warmup fraction excluded from production-trace
// statistics (the paper tunes on the first 20% of each trace).
const prodWarmup = 0.3

// synthWarmup matches Appendix C.1: train on the first half, evaluate
// on the second half.
const synthWarmup = 0.5

// --- policy construction ----------------------------------------------------

// polOpts builds the registry options of the Raven every experiment
// evaluates on a trace/capacity pair, at the suite's training shape
// (trainShape). An experiment arm is these options with the one knob it
// varies set (replay's vary); nothing else builds an evaluated Raven.
func (r *Runner) polOpts(t *trace.Trace, capacity int64) policy.Options {
	return policy.Options{
		Capacity:    capacity,
		TrainWindow: t.Duration() / 8,
		Seed:        r.Cfg.Seed,
		Raven:       r.trainShape(),
	}
}

// trainShape returns Raven's network and training budget for the suite
// mode: the quick suite's small network, 6-epoch fits on at most 600
// objects and 30 residual samples, or the served network trained for
// up to 25 epochs with patience 5.
func (r *Runner) trainShape() *core.Config {
	if r.Cfg.Quick {
		return &core.Config{
			Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
			Train:           nn.TrainConfig{MaxEpochs: 6, Patience: 2},
			MaxTrainObjects: 600,
			ResidualSamples: 30,
		}
	}
	return &core.Config{Train: nn.TrainConfig{MaxEpochs: 25, Patience: 5}}
}

// run executes (trace, policy, capacity) once, memoized.
func (r *Runner) run(t *trace.Trace, polName string, capacity int64, opts sim.Options) *sim.Result {
	netKey := "none"
	if opts.Net != nil {
		netKey = fmt.Sprint(int(opts.Net.Kind))
	}
	key := fmt.Sprintf("%s|%s|%d|net=%s|rank=%d|warm=%.2f",
		t.Name, polName, capacity, netKey, opts.RankOrderEvery, opts.WarmupFrac)
	r.mu.Lock()
	if res, ok := r.results[key]; ok {
		r.mu.Unlock()
		return res
	}
	r.mu.Unlock()

	start := time.Now()
	res := r.replay(t, polName, capacity, opts, nil)
	r.logf("  ran %-18s on %-12s C=%-12d OHR=%.4f BHR=%.4f (%v)",
		polName, t.Name, capacity, res.OHR, res.BHR, time.Since(start).Round(time.Millisecond))

	r.mu.Lock()
	r.results[key] = res
	r.mu.Unlock()
	return res
}

// replay runs t once through the registry policy polName built from
// polOpts(t, capacity), after vary (if not nil) has set the knob an
// experiment arm varies. With vary nil it is run's replay: an arm at
// its knob's suite value replays that run bit for bit.
func (r *Runner) replay(t *trace.Trace, polName string, capacity int64, opts sim.Options, vary func(*policy.Options)) *sim.Result {
	o := r.polOpts(t, capacity)
	if vary != nil {
		vary(&o)
	}
	opts.Capacity = capacity
	opts.Seed = r.Cfg.Seed
	return r.simulate(t, policy.MustNew(polName, o), opts)
}

// simulate replays t through a one-shard engine driven by p. The
// experiments size every cache themselves, so only a bug makes the
// engine refuse its configuration; the error is kept for Run to return
// and the empty result lets the experiment finish its table.
func (r *Runner) simulate(t *trace.Trace, p cache.Policy, opts sim.Options) *sim.Result {
	res, err := sim.Run(t, 1, cache.SingleFactory(p), opts)
	if err != nil {
		r.mu.Lock()
		if r.err == nil {
			r.err = err
		}
		r.mu.Unlock()
		return &sim.Result{Policies: []cache.Policy{p}}
	}
	return res
}

// netFor returns the §5.1.4 model matching a preset.
func netFor(p trace.ProductionPreset) *sim.NetModel {
	if p.IsCDN() {
		return sim.CDNModel()
	}
	return sim.InMemoryModel()
}

// --- registry ----------------------------------------------------------------

// experiment pairs an experiment ID with the Runner method that
// produces its report.
type experiment struct {
	id  string
	run func(*Runner) *Report
}

// experimentTable lists every experiment in paper order.
var experimentTable = []experiment{
	{"fig2a", (*Runner).Fig2a},
	{"fig2bc", (*Runner).Fig2bc},
	{"fig3", (*Runner).Fig3},
	{"fig5", (*Runner).Fig5},
	{"fig6", (*Runner).Fig6},
	{"fig7", (*Runner).Fig7},
	{"fig8", (*Runner).Fig8},
	{"fig9", (*Runner).Fig9},
	{"fig10", (*Runner).Fig10},
	{"tab2", (*Runner).Table2},
	{"fig11", (*Runner).Fig11},
	{"fig12", (*Runner).Fig12},
	{"tab3", (*Runner).Table3},
	{"tab4", (*Runner).Table4},
	{"tab5", (*Runner).Table5},
	{"tab6", (*Runner).Table6},
	{"tab7", (*Runner).Table7},
	{"tab8", (*Runner).Table8},
	{"fig13", (*Runner).Fig13},
	{"fig14", (*Runner).Fig14},
	{"fig15", (*Runner).Fig15},
	{"fig16", (*Runner).Fig16},
	{"fig17", (*Runner).Fig17},
	{"fig18", (*Runner).Fig18},
	{"fig19", (*Runner).Fig19},
	{"fig20", (*Runner).Fig20},
	{"fig21", (*Runner).Fig21},
	{"ablations", (*Runner).Ablations},
	{"overhead", (*Runner).Overhead},
	{"admission", (*Runner).Admission},
}

// All lists every experiment ID in paper order.
var All = func() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}()

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (*Report, error) {
	i := slices.IndexFunc(experimentTable, func(e experiment) bool { return e.id == id })
	if i < 0 {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, All)
	}
	start := time.Now()
	rep := experimentTable[i].run(r)
	rep.Took = time.Since(start)
	r.mu.Lock()
	err := r.err
	r.err = nil
	r.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return rep, nil
}

// fmtPct formats a ratio as a percentage string.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// bestOf returns the result with the highest metric.
func bestOf(rs []*sim.Result, metric func(*sim.Result) float64) *sim.Result {
	var best *sim.Result
	for _, r := range rs {
		if best == nil || metric(r) > metric(best) {
			best = r
		}
	}
	return best
}
