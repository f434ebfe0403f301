// Command benchmark measures the system that is actually served:
// ravencached with the Raven policy on, directly and behind
// ravenrouter, over the binary protocol, from one process and one
// connection. It builds the two binaries, generates a workload from
// the seed, spawns the real processes on ephemeral ports, replays the
// workload in a closed loop, checks every reply, and prints every
// metric by name with its unit. README.md has the catalogue.
//
//	go run ./benchmark -workload <name|all> -seed <n> [-trace 1] [-out f.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics after
// an untraced run, the per-layer metrics after a traced one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// resultsDir is where trace files and result sets are written.
const resultsDir = "benchmark/results"

// runSeconds is the nominal length of the measured phases, the
// run_seconds of BENCHMARK.json. The op stream is a function of the
// seed, not of the clock: the workloads are sized so that lat and pipe
// together last about this long on the box the benchmark was written on.
const runSeconds = 5

// smokeDir receives the traces of the -smoke miniature, so they never
// overwrite a measured run's.
const smokeDir = buildDir + "/smoke"

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: feeds trace generation and SET selection only")
		seconds  = flag.Float64("seconds", runSeconds, "nominal length of the measured phases; the workloads are sized for it and do not change with it")
		trace    = flag.Int("trace", 0, "1 = also perform the traced run and report the per-layer metrics")
		out      = flag.String("out", "", "also write the full result set to this JSON file")
		smoke    = flag.Bool("smoke", false, "miniature of every workload, timed and traced: a functional check, not a measurement")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name|all> -seed <n> [-seconds 5] [-trace 0|1] [-out f.json] [-smoke]")
		return 2
	}
	cfg := config{seed: *seed, traced: *trace == 1, traceDir: resultsDir}
	if *smoke {
		*workload, cfg.smoke, cfg.traced, cfg.traceDir = "all", true, true, smokeDir
	}
	var chosen []spec
	if *workload == "all" {
		chosen = specs
	} else {
		s, err := lookupSpec(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		chosen = []spec{s}
	}

	// Children die on every exit path: normal return and error return
	// (the deferred killAll), a panic (same defer, then re-raised),
	// SIGINT/SIGTERM (the handler), and a SIGKILLed benchmark
	// (Pdeathsig in spawn).
	defer func() {
		killAll()
		if r := recover(); r != nil {
			panic(r)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	bins, err := buildBinaries()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Pin after the build, which may use every CPU. One P matches the
	// one CPU the load generator, a single caller, can use.
	pinned := pinToOneCPU()
	if pinned < 0 {
		warnf("could not pin to one CPU; timings will be noisier")
	} else {
		runtime.GOMAXPROCS(1)
	}
	set := resultSet{
		Date: time.Now().UTC().Format("2006-01-02"), NProc: runtime.NumCPU(), PinnedCPU: pinned, GoVersion: runtime.Version(),
		Seed: cfg.seed, Smoke: cfg.smoke, BuildSeconds: bins.buildSeconds,
		Workloads: map[string]*workloadResult{},
	}
	for _, s := range chosen {
		wr, err := measure(bins, s, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
			return 1
		}
		set.Workloads[s.name] = wr
		wr.print(s.name, cfg.traced)
		if !wr.Correct {
			code = 1
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -out:", err)
			return 1
		}
	}
	return code
}

type config struct {
	seed     int64
	smoke    bool
	traced   bool
	traceDir string
}

// resultSet is the -out file: one invocation's results with what is
// needed to compare it with another.
type resultSet struct {
	Date         string                     `json:"date"`
	NProc        int                        `json:"nproc"`
	PinnedCPU    int                        `json:"pinned_cpu"`
	GoVersion    string                     `json:"go_version"`
	Seed         int64                      `json:"seed"`
	Smoke        bool                       `json:"smoke,omitempty"`
	BuildSeconds float64                    `json:"build_s"`
	Workloads    map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	OpsFNV64   string           `json:"ops_fnv64"`
	Capacity   int64            `json:"capacity_bytes"`
	Window     int64            `json:"window_ticks"`
	Phases     map[string]int64 `json:"phase_requests"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Correct    bool             `json:"correct"`
	Violations []string         `json:"violations,omitempty"`
	EndToEnd   values           `json:"end_to_end"`
	PerLayer   values           `json:"per_layer"`
}

// measure runs one workload: the untraced run always, the traced run
// when asked for.
func measure(b binaries, s spec, cfg config) (*workloadResult, error) {
	if cfg.smoke {
		s = s.miniature()
	}
	tr, err := runTimed(b, s, cfg.seed)
	if err != nil {
		return nil, err
	}
	wr := &workloadResult{
		OpsFNV64: fmt.Sprintf("%016x", tr.ops.hash), Capacity: tr.ops.capacity, Window: tr.ops.window,
		Phases:    map[string]int64{"warmup": tr.warm.ops, "lat": tr.lat.ops, "pipe": tr.pipe.ops},
		Attempted: tr.attempted, Failed: tr.failed,
		Violations: tr.violations, Correct: len(tr.violations) == 0 && tr.failed == 0,
		EndToEnd: tr.e2e, PerLayer: tr.layer,
	}
	if !cfg.traced || !wr.Correct {
		return wr, nil
	}
	times, err := runTraced(s, cfg.seed, tr.ops, cfg.traceDir)
	if err != nil {
		return nil, err
	}
	for k, v := range times {
		wr.PerLayer[k] = v
	}
	// The acceptance check between the two runs: every inline fit the
	// traced run saw is a stall the untraced load generator felt.
	if fits, stalls := wr.PerLayer["core.fit_count"], wr.PerLayer["loadgen.stall_count"]; fits != stalls { //lint:allow float-equal both are whole counts held in float64
		warnf("%s: traced run saw %.0f inline fits in the measured phases, untraced run felt %.0f stalls", s.name, fits, stalls)
	}
	return wr, nil
}

// print writes "workload metric value unit" for every metric measured
// and then the JSON object the driver reads: with traced, the per-layer
// catalogue, otherwise the end-to-end one.
func (wr *workloadResult) print(workload string, traced bool) {
	fmt.Printf("%s ops_fnv64 %s hash\n", workload, wr.OpsFNV64)
	for _, ph := range []string{"warmup", "lat", "pipe"} {
		fmt.Printf("%s requests_%s %d count\n", workload, ph, wr.Phases[ph])
	}
	fmt.Printf("%s ops_attempted %d count\n", workload, wr.Attempted)
	fmt.Printf("%s ops_failed %d count\n", workload, wr.Failed)
	for _, v := range wr.Violations {
		fmt.Printf("%s VIOLATION %s\n", workload, v)
	}
	line := func(m metric, from values) {
		if v, ok := from[m.name]; ok {
			fmt.Printf("%s %s %.6g %s\n", workload, m.name, v, m.unit)
		}
	}
	for _, m := range endToEnd {
		line(m, wr.EndToEnd)
	}
	for _, m := range perLayer {
		line(m, wr.PerLayer)
	}

	catalogue, from := endToEnd, wr.EndToEnd
	if traced {
		catalogue, from = perLayer, wr.PerLayer
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]jm{}}
	for _, m := range catalogue {
		final.Metrics[m.name] = jm{from[m.name], m.unit}
	}
	raw, err := json.Marshal(final)
	if err != nil {
		warnf("encode result: %v", err)
		return
	}
	fmt.Println(string(raw))
}
