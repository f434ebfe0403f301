// Command ravenbench is the performance harness for the parallel
// execution layer: it times the tuned linear-algebra kernels against
// scalar references, training epochs and eviction decisions across
// worker counts, and an end-to-end simulation, then writes the
// results as BENCH_<date>.json so runs are comparable across machines
// and commits.
//
// Thread-level speedups require real cores: the report records
// num_cpu and gomaxprocs so a reader can tell "no speedup" on a
// single-core container apart from a regression. The kernel-tuning
// and allocation numbers are meaningful on any machine.
//
// Usage:
//
//	ravenbench [-out DIR] [-workers 1,2,4,8] [-quick]
//	           [-pipeclients 2,8] [-pipedepths 1,16,64]
//	ravenbench -compare OLD.json NEW.json
//
// The -compare mode prints per-section deltas between two reports and
// exits non-zero when the eviction-decision latencies or the
// pipelined-sweep throughput regressed by more than 10%, so the perf
// trajectory is enforceable in CI, not just recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/server"
	"raven/internal/sim"
	"raven/internal/stats"
	"raven/internal/trace"
)

type kernelResult struct {
	Name      string  `json:"name"`
	TunedNs   float64 `json:"tuned_ns_per_op"`
	RefNs     float64 `json:"reference_ns_per_op"`
	Speedup   float64 `json:"speedup_vs_reference"`
	Dimension string  `json:"dimension"`
}

type workerResult struct {
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	Speedup     float64 `json:"speedup_vs_serial"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type e2eResult struct {
	Workers   int     `json:"workers"`
	Requests  int     `json:"requests"`
	Seconds   float64 `json:"seconds"`
	Speedup   float64 `json:"speedup_vs_serial"`
	ReqPerSec float64 `json:"requests_per_sec"`
}

type shardResult struct {
	Shards    int     `json:"shards"`
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests_total"`
	Seconds   float64 `json:"seconds"`
	ReqPerSec float64 `json:"requests_per_sec"`
	Speedup   float64 `json:"speedup_vs_one_shard"`
}

type pipeResult struct {
	Clients   int     `json:"clients"`
	Depth     int     `json:"pipeline_depth"`
	Requests  int     `json:"requests_total"`
	Seconds   float64 `json:"seconds"`
	ReqPerSec float64 `json:"requests_per_sec"`
	P50Ns     float64 `json:"p50_ns"`
	P99Ns     float64 `json:"p99_ns"`
}

type decisionP99Result struct {
	Mode               string  `json:"mode"` // "f64" or "f32" inference kernels
	Workers            int     `json:"workers"`
	Decisions          int     `json:"decisions"`
	P50Ns              float64 `json:"p50_ns"`
	P99Ns              float64 `json:"p99_ns"`
	ScoreCacheHitRatio float64 `json:"score_cache_hit_ratio"`
}

type admissionResult struct {
	Mode       string  `json:"mode"` // admit-all | doorkeeper | learned
	Requests   int     `json:"requests"`
	OHR        float64 `json:"ohr"`
	RejectRate float64 `json:"reject_rate"`
	PrefetchOK int64   `json:"prefetch_hits"`
}

type report struct {
	Date       string              `json:"date"`
	GoVersion  string              `json:"go_version"`
	NumCPU     int                 `json:"num_cpu"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	Kernels    []kernelResult      `json:"kernels"`
	TrainEpoch []workerResult      `json:"train_epoch"`
	Evict      []workerResult      `json:"evict_decision"`
	EvictP99   []decisionP99Result `json:"evict_decision_p99,omitempty"`
	EndToEnd   []e2eResult         `json:"end_to_end_sim"`
	ShardSweep []shardResult       `json:"shard_sweep_server"`
	// PipelinedSweep measures the binary protocol with request
	// pipelining against the same server setup as ShardSweep; depth 1
	// isolates the binary framing win, deeper pipelines add batching.
	PipelinedSweep []pipeResult `json:"pipelined_sweep,omitempty"`
	// AdmissionSweep compares the admission front-end modes (admit-all,
	// doorkeeper, learned + prefetch) on a one-hit-wonder-heavy trace:
	// OHR is gated in -compare mode so an admission-quality regression
	// fails CI like a latency regression does.
	AdmissionSweep []admissionResult `json:"admission_sweep,omitempty"`
}

// timeOp measures ns/op of fn, running it repeatedly until at least
// minDur has elapsed (after one untimed warmup call).
func timeOp(minDur time.Duration, fn func()) float64 {
	fn()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(start)
		if el >= minDur {
			return float64(el.Nanoseconds()) / float64(n)
		}
		if el <= 0 {
			n *= 1000
			continue
		}
		// Aim 20% past the budget so the next round usually terminates.
		n = int(float64(n) * 1.2 * float64(minDur) / float64(el))
		if n < 1 {
			n = 1
		}
	}
}

// allocsPerOp measures heap allocations per call of fn (after warmup),
// single-goroutine, mirroring testing.AllocsPerRun.
func allocsPerOp(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// ---- scalar reference kernels (the pre-tuning implementations) ----

func refMatVec(w []float64, rows, cols int, x, y0, y []float64) {
	for r := 0; r < rows; r++ {
		s := 0.0
		if y0 != nil {
			s = y0[r]
		}
		row := w[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			s += row[c] * x[c]
		}
		y[r] = s
	}
}

func refMatTVecAdd(w []float64, rows, cols int, dy, dx []float64) {
	for r := 0; r < rows; r++ {
		d := dy[r]
		if d == 0 { //lint:allow float-equal mirrors the tuned kernel's exact-zero row skip
			continue
		}
		row := w[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			dx[c] += d * row[c]
		}
	}
}

func refOuterAdd(dw []float64, rows, cols int, dy, x []float64) {
	for r := 0; r < rows; r++ {
		d := dy[r]
		if d == 0 { //lint:allow float-equal mirrors the tuned kernel's exact-zero row skip
			continue
		}
		row := dw[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			row[c] += d * x[c]
		}
	}
}

func benchKernels(minDur time.Duration) []kernelResult {
	const rows, cols = 64, 64
	g := stats.NewRNG(1)
	w := make([]float64, rows*cols)
	x := make([]float64, cols)
	y := make([]float64, rows)
	dy := make([]float64, rows)
	dx := make([]float64, cols)
	for i := range w {
		w[i] = g.NormFloat64()
	}
	for i := range x {
		x[i] = g.NormFloat64()
	}
	for i := range dy {
		dy[i] = g.NormFloat64()
	}
	dim := fmt.Sprintf("%dx%d", rows, cols)
	mk := func(name string, tuned, ref func()) kernelResult {
		t := timeOp(minDur, tuned)
		r := timeOp(minDur, ref)
		return kernelResult{Name: name, TunedNs: t, RefNs: r, Speedup: r / t, Dimension: dim}
	}
	return []kernelResult{
		mk("matVec",
			func() { nn.MatVec(w, rows, cols, x, nil, y) },
			func() { refMatVec(w, rows, cols, x, nil, y) }),
		mk("matTVecAdd",
			func() { nn.MatTVecAdd(w, rows, cols, dy, dx) },
			func() { refMatTVecAdd(w, rows, cols, dy, dx) }),
		mk("outerAdd",
			func() { nn.OuterAdd(w, rows, cols, dy, x) },
			func() { refOuterAdd(w, rows, cols, dy, x) }),
	}
}

func trainSequences(n int, g *stats.RNG) []nn.Sequence {
	data := make([]nn.Sequence, n)
	for i := range data {
		taus := make([]float64, 4+g.Intn(24))
		for j := range taus {
			taus[j] = g.Exponential(40)
		}
		data[i] = nn.Sequence{
			Taus:     taus,
			Size:     64 + float64(g.Intn(4000)),
			Survival: g.Exponential(80),
		}
	}
	return data
}

func benchTrainEpoch(workers []int, seqs int) []workerResult {
	data := trainSequences(seqs, stats.NewRNG(3))
	out := make([]workerResult, 0, len(workers))
	for _, w := range workers {
		n := nn.NewNet(nn.Config{TimeScale: 40, Seed: 3})
		tc := nn.TrainConfig{MaxEpochs: 1, Patience: 1, Survival: true, Workers: w, Seed: 9}
		ns := timeOp(200*time.Millisecond, func() { n.Fit(data, tc) })
		out = append(out, workerResult{Workers: w, NsPerOp: ns})
	}
	for i := range out {
		out[i].Speedup = out[0].NsPerOp / out[i].NsPerOp
	}
	return out
}

func trainedRaven(workers int) *core.Raven {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 30000, Interarrival: trace.Poisson, Seed: 5,
	})
	r := core.New(core.Config{
		TrainWindow:     tr.Duration() / 4,
		MaxTrainObjects: 300,
		Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
		Train:           nn.TrainConfig{MaxEpochs: 5, Patience: 2},
		Workers:         workers,
		Seed:            7,
	})
	c := cache.New(40, r)
	for _, req := range tr.Reqs {
		c.Handle(req)
	}
	if !r.Trained() {
		fmt.Fprintln(os.Stderr, "ravenbench: policy never trained; eviction numbers would be LRU fallback")
		os.Exit(1)
	}
	return r
}

func benchEvict(workers []int) []workerResult {
	out := make([]workerResult, 0, len(workers))
	for _, w := range workers {
		r := trainedRaven(w)
		victim := func() {
			if _, ok := r.Victim(); !ok {
				fmt.Fprintln(os.Stderr, "ravenbench: no victim from a full cache")
				os.Exit(1)
			}
		}
		ns := timeOp(300*time.Millisecond, victim)
		al := allocsPerOp(200, victim)
		out = append(out, workerResult{Workers: w, NsPerOp: ns, AllocsPerOp: al})
	}
	for i := range out {
		out[i].Speedup = out[0].NsPerOp / out[i].NsPerOp
	}
	return out
}

// benchEvictP99 measures the tail of individual eviction decisions on
// the ScoreCache fast path under realistic dirtying: after training,
// the trace is replayed (time-shifted to stay monotone) so each timed
// Victim call sees the candidate-staleness pattern of live traffic
// rather than an artificially all-clean or all-dirty cache. Every
// decision is timed individually — the p99 is the number the <50µs
// per-decision SLO (Config.DecisionBudget) is set against.
func benchEvictP99(f32 bool, decisions int) decisionP99Result {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 30000, Interarrival: trace.Poisson, Seed: 5,
	})
	ro := &obs.RavenObs{}
	r := core.New(core.Config{
		TrainWindow:     tr.Duration() / 4,
		MaxTrainObjects: 300,
		Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
		Train:           nn.TrainConfig{MaxEpochs: 5, Patience: 2},
		Workers:         1,
		Seed:            7,
		ScoreCache:      true,
		Inference32:     f32,
		Obs:             ro,
	})
	c := cache.New(40, r)
	for _, req := range tr.Reqs {
		c.Handle(req)
	}
	if !r.Trained() {
		fmt.Fprintln(os.Stderr, "ravenbench: policy never trained; p99 numbers would be LRU fallback")
		os.Exit(1)
	}
	r.Victim() // warm: grow scratch, freeze weights, populate the score cache
	hits0, res0 := ro.ScoreCacheHits.Load(), ro.ScoreRescores.Load()
	samples := make([]float64, 0, decisions)
	span := tr.Duration() + 1
	for i := 0; len(samples) < decisions; i++ {
		req := tr.Reqs[i%len(tr.Reqs)]
		req.Time += span * int64(1+i/len(tr.Reqs))
		c.Handle(req)
		start := time.Now()
		if _, ok := r.Victim(); !ok {
			fmt.Fprintln(os.Stderr, "ravenbench: no victim from a full cache")
			os.Exit(1)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds()))
	}
	hits := ro.ScoreCacheHits.Load() - hits0
	rescores := ro.ScoreRescores.Load() - res0
	ratio := 0.0
	if hits+rescores > 0 {
		ratio = float64(hits) / float64(hits+rescores)
	}
	sort.Float64s(samples)
	mode := "f64"
	if f32 {
		mode = "f32"
	}
	return decisionP99Result{
		Mode:               mode,
		Workers:            1,
		Decisions:          len(samples),
		P50Ns:              percentile(samples, 50),
		P99Ns:              percentile(samples, 99),
		ScoreCacheHitRatio: ratio,
	}
}

// percentile returns the p-th percentile of sorted samples.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// simulate replays tr through a one-shard engine driven by p.
func simulate(tr *trace.Trace, p cache.Policy, opts sim.Options) *sim.Result {
	res, err := sim.Run(tr, 1, cache.SingleFactory(p), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ravenbench:", err)
		os.Exit(1)
	}
	return res
}

func benchEndToEnd(workers []int, requests int) []e2eResult {
	out := make([]e2eResult, 0, len(workers))
	for _, w := range workers {
		tr := trace.Synthetic(trace.SynthConfig{
			Objects: 200, Requests: requests, Interarrival: trace.Pareto,
			VariableSizes: true, Seed: 11,
		})
		capacity := tr.UniqueBytes() / 8
		p := policy.MustNew("raven", policy.Options{
			Capacity: capacity, TrainWindow: tr.Duration() / 4, Seed: 7, Workers: w,
		})
		start := time.Now()
		simulate(tr, p, sim.Options{Capacity: capacity, Seed: 3})
		el := time.Since(start).Seconds()
		out = append(out, e2eResult{
			Workers: w, Requests: requests, Seconds: el,
			ReqPerSec: float64(requests) / el,
		})
	}
	for i := range out {
		out[i].Speedup = out[0].Seconds / out[i].Seconds
	}
	return out
}

// benchAdmissionSweep replays one one-hit-wonder-heavy synthetic trace
// (many objects, few repeats, Pareto interarrivals — the CDN shape
// admission control exists for) through Raven under each admission
// mode and records the hit-ratio and reject-rate deltas. The learned
// run also arms the prefetch queue so its counters are exercised.
func benchAdmissionSweep(requests int) []admissionResult {
	modes := []struct {
		label string
		adm   policy.AdmissionOptions
		pf    policy.PrefetchOptions
	}{
		{"admit-all", policy.AdmissionOptions{}, policy.PrefetchOptions{}},
		{"doorkeeper", policy.AdmissionOptions{Mode: policy.AdmitDoorkeeper}, policy.PrefetchOptions{}},
		{"learned", policy.AdmissionOptions{Mode: policy.AdmitLearned},
			policy.PrefetchOptions{Horizon: 1}}, // filled from the trace below
	}
	out := make([]admissionResult, 0, len(modes))
	for _, m := range modes {
		tr := trace.Synthetic(trace.SynthConfig{
			Objects: requests / 3, Requests: requests, Interarrival: trace.Pareto,
			Seed: 11,
		})
		if m.pf.Horizon != 0 {
			m.pf.Horizon = tr.Duration() / 8
		}
		capacity := int64(requests) / 300
		p := policy.MustNew("raven", policy.Options{
			Capacity:    capacity,
			TrainWindow: tr.Duration() / 8,
			Seed:        7,
			ScoreCache:  true,
			Admission:   m.adm,
			Prefetch:    m.pf,
		})
		res := simulate(tr, p, sim.Options{Capacity: capacity, Seed: 3, WarmupFrac: 0.3})
		misses := res.Stats.Admissions + res.Stats.Rejections
		rejectRate := 0.0
		if misses > 0 {
			rejectRate = float64(res.Stats.Rejections) / float64(misses)
		}
		out = append(out, admissionResult{
			Mode: m.label, Requests: requests, OHR: res.OHR,
			RejectRate: rejectRate, PrefetchOK: res.Stats.PrefetchHits,
		})
	}
	return out
}

// benchShards measures server throughput across shard counts: for
// each count it starts a TCP server whose cache is split into that
// many shards (one LHD instance per shard — a policy with real
// per-request compute, so the sharded critical section dominates and
// the sweep measures lock contention, not syscall overhead) and
// hammers it with concurrent clients issuing mixed GET/SET traffic.
// Shard counts beyond the core count cannot speed up wall time — the
// report's num_cpu/gomaxprocs fields tell flat curves on small
// machines apart from regressions.
func benchShards(shardCounts []int, clients, perClient int) []shardResult {
	out := make([]shardResult, 0, len(shardCounts))
	for _, n := range shardCounts {
		f, err := policy.Lookup("lhd")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ravenbench:", err)
			os.Exit(1)
		}
		const capacity = 1 << 20
		srv, err := server.New(server.Config{
			Capacity:  capacity,
			Shards:    n,
			NewPolicy: f.PerShard(policy.Options{Capacity: capacity, Seed: 7}, n),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ravenbench:", err)
			os.Exit(1)
		}
		var wg sync.WaitGroup
		var failed atomic.Bool
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, err := server.Dial(srv.Addr())
				if err != nil {
					failed.Store(true)
					return
				}
				defer cl.Close()
				cl.Timeout = 30 * time.Second
				g := stats.NewRNG(int64(c + 1))
				for i := 0; i < perClient; i++ {
					key := trace.Key(g.Intn(8192))
					size := int64(64 + int(key)%1024)
					if g.Float64() < 0.1 {
						_, err = cl.Set(key, size, -1)
					} else {
						_, err = cl.Get(key, size, -1)
					}
					if err != nil {
						failed.Store(true)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		_ = srv.Close()
		if failed.Load() {
			fmt.Fprintln(os.Stderr, "ravenbench: shard sweep client failed")
			os.Exit(1)
		}
		total := clients * perClient
		out = append(out, shardResult{
			Shards: srv.Shards(), Clients: clients, Requests: total,
			Seconds: el, ReqPerSec: float64(total) / el,
		})
	}
	for i := range out {
		out[i].Speedup = out[0].Seconds / out[i].Seconds
	}
	return out
}

// benchPipelined measures the binary protocol's pipelined serving
// path: an 8-shard LHD server (the ShardSweep setup, so the two
// sections share a baseline) hammered by binary-protocol clients
// keeping `depth` requests in flight each, over the same mixed
// 10%-SET key pattern as benchShards. Reported per (clients, depth)
// cell: aggregate req/s plus the p50/p99 per-request latency as the
// pipelining client observes it (enqueue to reply, so deep pipelines
// trade latency for throughput by construction).
func benchPipelined(clientCounts, depths []int, perClient int) []pipeResult {
	f, err := policy.Lookup("lhd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ravenbench:", err)
		os.Exit(1)
	}
	out := make([]pipeResult, 0, len(clientCounts)*len(depths))
	for _, clients := range clientCounts {
		for _, depth := range depths {
			const capacity, shards = 1 << 20, 8
			srv, err := server.New(server.Config{
				Capacity:  capacity,
				Shards:    shards,
				NewPolicy: f.PerShard(policy.Options{Capacity: capacity, Seed: 7}, shards),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "ravenbench:", err)
				os.Exit(1)
			}
			var wg sync.WaitGroup
			var failed atomic.Bool
			stats99 := make([]server.PipelineStats, clients)
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c, depth int) {
					defer wg.Done()
					cl, err := server.DialBinary(srv.Addr())
					if err != nil {
						failed.Store(true)
						return
					}
					defer cl.Close()
					cl.Timeout = 30 * time.Second
					g := stats.NewRNG(int64(c + 1))
					ops := make([]server.Op, perClient)
					for i := range ops {
						key := trace.Key(g.Intn(8192))
						ops[i] = server.Op{
							Key:  key,
							Size: int64(64 + int(key)%1024),
							Time: -1,
							Set:  g.Float64() < 0.1,
						}
					}
					st, err := cl.Pipeline(ops, depth)
					if err != nil {
						failed.Store(true)
						return
					}
					stats99[c] = st
				}(c, depth)
			}
			wg.Wait()
			el := time.Since(start).Seconds()
			_ = srv.Close()
			if failed.Load() {
				fmt.Fprintln(os.Stderr, "ravenbench: pipelined sweep client failed")
				os.Exit(1)
			}
			// Aggregate: throughput over shared wall time; the latency
			// percentiles are the worst client's (conservative — one
			// sorted merge per cell is not worth the memory).
			total := clients * perClient
			res := pipeResult{
				Clients: clients, Depth: depth, Requests: total,
				Seconds: el, ReqPerSec: float64(total) / el,
			}
			for _, st := range stats99 {
				if st.P50Ns > res.P50Ns {
					res.P50Ns = st.P50Ns
				}
				if st.P99Ns > res.P99Ns {
					res.P99Ns = st.P99Ns
				}
			}
			out = append(out, res)
		}
	}
	return out
}

// ---- report comparison (-compare OLD.json NEW.json) ----

func loadReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// deltaLine formats "old -> new (±pct%)" with an optional REGRESSION
// marker when the change exceeds tol (for metrics where bigger is
// worse, i.e. latencies).
func deltaLine(before, after float64, tol float64, gate bool) (string, bool) {
	if before <= 0 {
		return fmt.Sprintf("%12.1f -> %12.1f  (no baseline)", before, after), false
	}
	pct := (after - before) / before * 100
	s := fmt.Sprintf("%12.1f -> %12.1f  (%+6.1f%%)", before, after, pct)
	if gate && after > before*(1+tol) {
		return s + "  REGRESSION", true
	}
	return s, false
}

// deltaLineUp is deltaLine for metrics where bigger is better
// (throughput): a regression is after dropping more than tol below
// before.
func deltaLineUp(before, after float64, tol float64, gate bool) (string, bool) {
	if before <= 0 {
		return fmt.Sprintf("%12.1f -> %12.1f  (no baseline)", before, after), false
	}
	pct := (after - before) / before * 100
	s := fmt.Sprintf("%12.1f -> %12.1f  (%+6.1f%%)", before, after, pct)
	if gate && after < before*(1-tol) {
		return s + "  REGRESSION", true
	}
	return s, false
}

// compareReports prints per-section deltas between two ravenbench
// reports and returns true when a gated section (the eviction-decision
// mean and p99 latencies, and pipelined-sweep throughput) regressed by
// more than tol. Sections or entries present in only one report are
// skipped — older reports predate evict_decision_p99 and
// pipelined_sweep.
func compareReports(oldRep, newRep *report, tol float64) bool {
	regressed := false
	check := func(s string, bad bool) {
		fmt.Printf("  %s\n", s)
		if bad {
			regressed = true
		}
	}

	fmt.Println("== kernels (tuned ns/op, informational)")
	for _, n := range newRep.Kernels {
		for _, o := range oldRep.Kernels {
			if o.Name == n.Name {
				s, _ := deltaLine(o.TunedNs, n.TunedNs, tol, false)
				fmt.Printf("  %-12s %s\n", n.Name, s)
			}
		}
	}
	fmt.Println("== train_epoch (ns/op, informational)")
	for _, n := range newRep.TrainEpoch {
		for _, o := range oldRep.TrainEpoch {
			if o.Workers == n.Workers {
				s, _ := deltaLine(o.NsPerOp, n.NsPerOp, tol, false)
				fmt.Printf("  workers=%-4d %s\n", n.Workers, s)
			}
		}
	}
	fmt.Printf("== evict_decision (ns/op, gated at %+.0f%%)\n", tol*100)
	for _, n := range newRep.Evict {
		for _, o := range oldRep.Evict {
			if o.Workers == n.Workers {
				s, bad := deltaLine(o.NsPerOp, n.NsPerOp, tol, true)
				check(fmt.Sprintf("workers=%-4d %s", n.Workers, s), bad)
			}
		}
	}
	fmt.Printf("== evict_decision_p99 (p99 ns, gated at %+.0f%%)\n", tol*100)
	for _, n := range newRep.EvictP99 {
		for _, o := range oldRep.EvictP99 {
			if o.Mode == n.Mode && o.Workers == n.Workers {
				s, bad := deltaLine(o.P99Ns, n.P99Ns, tol, true)
				check(fmt.Sprintf("%s/workers=%-2d %s  hit-ratio %.3f -> %.3f",
					n.Mode, n.Workers, s, o.ScoreCacheHitRatio, n.ScoreCacheHitRatio), bad)
			}
		}
	}
	fmt.Println("== end_to_end_sim (req/s, informational)")
	for _, n := range newRep.EndToEnd {
		for _, o := range oldRep.EndToEnd {
			if o.Workers == n.Workers {
				s, _ := deltaLine(o.ReqPerSec, n.ReqPerSec, tol, false)
				fmt.Printf("  workers=%-4d %s\n", n.Workers, s)
			}
		}
	}
	fmt.Println("== shard_sweep_server (req/s, informational)")
	for _, n := range newRep.ShardSweep {
		for _, o := range oldRep.ShardSweep {
			if o.Shards == n.Shards {
				s, _ := deltaLine(o.ReqPerSec, n.ReqPerSec, tol, false)
				fmt.Printf("  shards=%-4d  %s\n", n.Shards, s)
			}
		}
	}
	fmt.Printf("== pipelined_sweep (req/s, gated at -%.0f%%)\n", tol*100)
	for _, n := range newRep.PipelinedSweep {
		for _, o := range oldRep.PipelinedSweep {
			if o.Clients == n.Clients && o.Depth == n.Depth {
				s, bad := deltaLineUp(o.ReqPerSec, n.ReqPerSec, tol, true)
				check(fmt.Sprintf("clients=%-2d depth=%-3d %s  p99 %.0f -> %.0f ns",
					n.Clients, n.Depth, s, o.P99Ns, n.P99Ns), bad)
			}
		}
	}
	fmt.Printf("== admission_sweep (OHR, gated at -%.0f%%)\n", tol*100)
	for _, n := range newRep.AdmissionSweep {
		for _, o := range oldRep.AdmissionSweep {
			if o.Mode == n.Mode && o.Requests == n.Requests {
				s, bad := deltaLineUp(o.OHR*1000, n.OHR*1000, tol, true)
				check(fmt.Sprintf("%-11s %s (milli-OHR)  reject rate %.3f -> %.3f",
					n.Mode, s, o.RejectRate, n.RejectRate), bad)
			}
		}
	}
	if regressed {
		fmt.Printf("FAIL: a gated section (eviction latency, pipelined throughput, or admission OHR) regressed by more than %.0f%%\n", tol*100)
	} else {
		fmt.Println("OK: no gated regressions")
	}
	return regressed
}

func main() {
	outDir := flag.String("out", ".", "directory for the BENCH_<date>.json report")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts (first is the serial baseline)")
	quick := flag.Bool("quick", false, "smaller workloads for a fast smoke run")
	pipeDepths := flag.String("pipedepths", "1,16,64", "comma-separated pipeline depths for the pipelined sweep")
	pipeClients := flag.String("pipeclients", "2,8", "comma-separated client counts for the pipelined sweep")
	compare := flag.Bool("compare", false, "compare two reports: ravenbench -compare OLD.json NEW.json; exits 1 on >10% eviction-latency regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: ravenbench -compare OLD.json NEW.json")
			os.Exit(2)
		}
		oldRep, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ravenbench: %v\n", err)
			os.Exit(2)
		}
		newRep, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ravenbench: %v\n", err)
			os.Exit(2)
		}
		if compareReports(oldRep, newRep, 0.10) {
			os.Exit(1)
		}
		return
	}

	parseInts := func(flagName, val string) []int {
		var out []int
		for _, f := range strings.Split(val, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "ravenbench: bad %s entry %q\n", flagName, f)
				os.Exit(2)
			}
			out = append(out, v)
		}
		return out
	}
	workers := parseInts("-workers", *workersFlag)
	depths := parseInts("-pipedepths", *pipeDepths)
	pclients := parseInts("-pipeclients", *pipeClients)

	kernelDur := 50 * time.Millisecond
	seqs, reqs := 256, 40000
	if *quick {
		kernelDur = 5 * time.Millisecond
		seqs, reqs = 64, 8000
	}

	rep := report{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(os.Stderr, "ravenbench: %d cpus, gomaxprocs %d, workers %v\n",
		rep.NumCPU, rep.GoMaxProcs, workers)

	fmt.Fprintln(os.Stderr, "==> kernels (tuned vs scalar reference)")
	rep.Kernels = benchKernels(kernelDur)
	fmt.Fprintln(os.Stderr, "==> training epoch")
	rep.TrainEpoch = benchTrainEpoch(workers, seqs)
	fmt.Fprintln(os.Stderr, "==> eviction decision")
	rep.Evict = benchEvict(workers)
	fmt.Fprintln(os.Stderr, "==> eviction decision p99 (ScoreCache fast path)")
	decisions := 2000
	if *quick {
		decisions = 300
	}
	rep.EvictP99 = []decisionP99Result{
		benchEvictP99(false, decisions),
		benchEvictP99(true, decisions),
	}
	fmt.Fprintln(os.Stderr, "==> end-to-end simulation")
	rep.EndToEnd = benchEndToEnd(workers, reqs)
	fmt.Fprintln(os.Stderr, "==> server shard sweep")
	perClient := 4000
	if *quick {
		perClient = 500
	}
	rep.ShardSweep = benchShards([]int{1, 2, 4, 8}, 8, perClient)
	fmt.Fprintln(os.Stderr, "==> server pipelined sweep (binary protocol)")
	rep.PipelinedSweep = benchPipelined(pclients, depths, perClient)
	fmt.Fprintln(os.Stderr, "==> admission sweep (admit-all vs doorkeeper vs learned)")
	admReqs := 60000
	if *quick {
		admReqs = 15000
	}
	rep.AdmissionSweep = benchAdmissionSweep(admReqs)

	path := filepath.Join(*outDir, "BENCH_"+rep.Date+".json")
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ravenbench: marshal: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ravenbench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	_, _ = os.Stdout.Write(buf)
	fmt.Fprintf(os.Stderr, "ravenbench: wrote %s\n", path)
}
