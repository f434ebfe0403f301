package main

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

// values maps a metric name to its measured value.
type values map[string]float64

// timedResult is what one untraced run of one workload produced.
type timedResult struct {
	spec spec

	e2e   values // every end-to-end metric
	layer values // per-layer counts and load-generator figures

	attempted, failed int64
	violations        []string // correctness-gate findings; empty = correct

	ops               *ops
	warm, lat, pipe   phaseResult
	latSlices         []slice
	pipeSlices        []slice
	setupSeconds      float64
	loadgenCPUSeconds float64
}

// snap is the METRICS snapshot of every process of a fleet, taken
// while no request is in flight.
type snap struct {
	front  map[string]int64
	nodes  []map[string]int64
	direct bool // the front is the only node
}

func takeSnap(f *fleet) (snap, error) {
	var s snap
	for _, n := range f.nodes {
		m, err := fetchMetrics(n.addr)
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, m)
	}
	if f.direct() {
		s.front, s.direct = s.nodes[0], true
		return s, nil
	}
	m, err := fetchMetrics(f.front.addr)
	s.front = m
	return s, err
}

// nodeSum adds one metric over the cache nodes.
func (s snap) nodeSum(name string) float64 {
	var t int64
	for _, m := range s.nodes {
		t += m[name]
	}
	return float64(t)
}

// allSum adds one metric over every process.
func (s snap) allSum(name string) float64 {
	t := s.nodeSum(name)
	if !s.direct {
		t += float64(s.front[name])
	}
	return t
}

// waitHealthy polls the router until every node's breaker reads
// Healthy (gauge 0): fits during the warm-up time requests out and
// can eject a node, and measuring must not start on a degraded fleet.
func waitHealthy(routerAddr string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := fetchMetrics(routerAddr)
		if err != nil {
			return err
		}
		healthy := true
		for i := 0; i < routedNodes; i++ {
			v, ok := m["router.node"+strconv.Itoa(i)+".state"]
			if !ok {
				return fmt.Errorf("router METRICS has no router.node%d.state", i)
			}
			healthy = healthy && v == 0
		}
		if healthy {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router nodes not all Healthy 30s after the warm-up")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// selfCPUSeconds is the load generator's own utime+stime.
func selfCPUSeconds() float64 {
	s, err := pidCPUSeconds("self")
	if err != nil {
		return 0
	}
	return s
}

// warmUp replays the warm-up prefix from op from on at depth 32; on a
// routed workload it then waits for a healthy fleet.
func warmUp(s spec, o *ops, c *conn, from int, addr string) (phaseResult, error) {
	warm, err := c.pipeline(o, from, o.warmEnd, pipeDepth)
	if err == nil && s.routed {
		err = waitHealthy(addr)
	}
	if err != nil {
		return warm, fmt.Errorf("warm-up: %w", err)
	}
	return warm, nil
}

// runTimed performs the untraced run of one workload: one set-up, the
// lat phase at depth 1, the pipe phase at depth 32, and the correctness
// gate. A run sets up once: the warm-up's cold fit alone is 9-16 s of a
// ~20 s run, and the driver's time cap leaves no room to repeat it.
func runTimed(b binaries, s spec, seed int64) (*timedResult, error) {
	res := &timedResult{spec: s, e2e: values{}, layer: values{}}
	probe, err := startHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	// Set-up is everything a run pays before it can measure, except
	// compiling the binaries: that depends on the checkout's build cache,
	// not on the code under test. Its clock reads the host's speed after
	// every step and, while the warm-up's fit holds the connection,
	// every 100 ms.
	t0, clock := time.Now(), startRefClock(probe)
	o, err := generate(s, seed)
	if err != nil {
		return nil, err
	}
	clock.tick()
	f, err := launch(b, s, o)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	c, err := dialBinary(f.front.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.whileWaiting = clock.tick
	warm, err := warmUp(s, o, c, 0, f.front.addr)
	if err != nil {
		return nil, err
	}
	c.whileWaiting = nil
	clock.tick()
	if clock.err != nil {
		return nil, clock.err
	}
	res.ops, res.warm, res.setupSeconds = o, warm, clock.seconds
	res.layer["loadgen.setup_wall_s"] = time.Since(t0).Seconds()
	m0, err := takeSnap(f)
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()

	var replayErr error
	res.lat, res.latSlices, replayErr = replaySliced(f, probe, o.warmEnd, o.latEnd, func(lo, hi int) (phaseResult, error) {
		return c.roundTrips(o, lo, hi, nil, nil)
	})
	if replayErr == nil {
		res.pipe, res.pipeSlices, replayErr = replaySliced(f, probe, o.latEnd, o.len(), func(lo, hi int) (phaseResult, error) {
			return c.pipeline(o, lo, hi, pipeDepth)
		})
	} else {
		res.pipe.failed = int64(o.len() - o.latEnd)
	}
	if replayErr != nil {
		res.violations = append(res.violations, replayErr.Error())
	}

	res.loadgenCPUSeconds = selfCPUSeconds() - self0
	res.attempted = int64(o.len() - o.warmEnd)
	res.failed = res.lat.failed + res.pipe.failed
	if replayErr != nil {
		// Framing is lost; the servers may be wedged mid-request, so
		// neither METRICS nor the remaining figures can be trusted.
		return res, nil
	}
	m1, err := takeSnap(f)
	if err != nil {
		return nil, err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := reconcile(res, f, m1); err != nil {
		return nil, err
	}
	res.fill(m0, m1, rss)
	return res, nil
}

// phaseSlices is how many equal slices each measured phase is cut into.
const phaseSlices = 40

// slice is one fortieth of a measured phase. Each time-based end-to-end
// metric is a per-slice figure, scaled by the host's speed around that
// slice (hostProbe), at the median of the slices: what disturbs fewer
// than half of a phase's slices in a way the probe does not see is not
// in it. That includes the inline fits, for which nothing steadier
// could be reported anyway: how long a fit lasts is decided by early
// stopping (7 to 29 epochs from one seed to the next), so a figure that
// holds the fits swings 25-35% across seeds. What the fits cost is
// reported beside it, per layer (lat_p99_us, loadgen.with_fits_*,
// loadgen.stall_*, core.fit_*).
type slice struct {
	ops        int64
	wall       time.Duration
	cpuSeconds float64 // server-side CPU time spent during the slice
	speed      float64 // probeRefNs / the probe's round trip around the slice: 1 = reference speed, less = slower
}

// replaySliced replays ops [lo, hi) in phaseSlices slices through
// replay, reading the host probe and the fleet's CPU time at every cut.
func replaySliced(f *fleet, probe *hostProbe, lo, hi int, replay func(lo, hi int) (phaseResult, error)) (phaseResult, []slice, error) {
	var total phaseResult
	var out []slice
	before, err := probe.read()
	if err != nil {
		return total, nil, err
	}
	for k := 0; k < phaseSlices; k++ {
		a, b := lo+(hi-lo)*k/phaseSlices, lo+(hi-lo)*(k+1)/phaseSlices
		if a == b {
			continue
		}
		cpu, err := f.cpuSeconds()
		if err != nil {
			return total, out, err
		}
		r, rerr := replay(a, b)
		total.add(r)
		if rerr != nil {
			total.failed += int64(hi - b)
			return total, out, rerr
		}
		cpuAfter, err := f.cpuSeconds()
		if err != nil {
			return total, out, err
		}
		after, err := probe.read()
		if err != nil {
			return total, out, err
		}
		out = append(out, slice{ops: r.ops, wall: r.wall, cpuSeconds: cpuAfter - cpu, speed: 2 * probeRefNs / (before + after)})
		before = after
	}
	return total, out, nil
}

// reconcile is the second half of the correctness gate: what the
// client counted from replies must be what the servers counted.
func reconcile(res *timedResult, f *fleet, end snap) error {
	var total phaseResult
	total.add(res.warm)
	total.add(res.lat)
	total.add(res.pipe)
	want := func(what string, got, exp int64) {
		if got != exp {
			res.violations = append(res.violations, fmt.Sprintf("%s: server says %d, client counted %d", what, got, exp))
		}
	}
	if !res.spec.routed {
		m := end.front
		want("cache.requests", m["cache.requests"], total.gets)
		want("cache.sets", m["cache.sets"], total.sets)
		want("cache.hits", m["cache.hits"], total.hits)
		return nil
	}
	st, err := fetchStats(f.front.addr)
	if err != nil {
		return err
	}
	want("router STATS requests", st[0], total.gets)
	want("router STATS hits", st[1], total.hits)
	want("router STATS request bytes", st[2], total.getBytes)
	want("router STATS hit bytes", st[3], total.hitByte)
	want("router server.requests_binary", end.front["server.requests_binary"], total.ops)
	// A node may have served requests the router gave up on (timed out
	// during a fit), never fewer than the router completed.
	for i, m := range end.nodes {
		pre := "router.node" + strconv.Itoa(i)
		opsDone, failures := end.front[pre+".ops"], end.front[pre+".failures"]
		served := m["cache.requests"] + m["cache.sets"]
		if served < opsDone || served > opsDone+failures {
			res.violations = append(res.violations, fmt.Sprintf(
				"node%d: served %d requests+sets, router counted %d ops and %d failures", i, served, opsDone, failures))
		}
	}
	return nil
}

// fill derives every end-to-end metric and the count-based per-layer
// metrics from the phase results and the METRICS deltas of lat+pipe.
func (res *timedResult) fill(m0, m1 snap, rssMB float64) {
	s := res.spec
	ops := float64(res.lat.ops + res.pipe.ops)
	kreq := ops / 1000
	var rps, p50, latCPU, pipeCPU, speed []float64
	var fleetCPU float64
	at := 0
	for _, sl := range res.latSlices {
		r := res.lat.rtts[at : at+int(sl.ops)]
		at += int(sl.ops)
		p50 = append(p50, sl.speed*float64(percentile(correctOmission(r, s.interval.Nanoseconds()), 50))/1e3)
		latCPU = append(latCPU, sl.speed*ratio(sl.cpuSeconds*1e6, float64(sl.ops)))
		fleetCPU += sl.cpuSeconds
		speed = append(speed, sl.speed)
	}
	for _, sl := range res.pipeSlices {
		rps = append(rps, ratio(float64(sl.ops), sl.speed*sl.wall.Seconds()))
		pipeCPU = append(pipeCPU, sl.speed*ratio(sl.cpuSeconds*1e6, float64(sl.ops)))
		fleetCPU += sl.cpuSeconds
		speed = append(speed, sl.speed)
	}
	corrected := correctOmission(res.lat.rtts, s.interval.Nanoseconds())
	raw := sortedCopy(res.lat.rtts)

	gets := float64(res.lat.gets + res.pipe.gets)
	getBytes := float64(res.lat.getBytes + res.pipe.getBytes)
	e := res.e2e
	e["setup_s"] = res.setupSeconds
	e["throughput_rps"] = median(rps)
	e["lat_p50_us"] = median(p50)
	e["ohr"] = ratio(float64(res.lat.hits+res.pipe.hits), gets)
	// A depth-1 request costs more CPU than a pipelined one, so each
	// phase's figure is weighted by the phase's requests.
	e["cpu_us_per_req"] = ratio(median(latCPU)*float64(res.lat.ops)+median(pipeCPU)*float64(res.pipe.ops), ops)
	e["peak_rss_mb"] = rssMB

	nodeD := func(name string) float64 { return m1.nodeSum(name) - m0.nodeSum(name) }
	allD := func(name string) float64 { return m1.allSum(name) - m0.allSum(name) }
	frontD := func(name string) float64 { return float64(m1.front[name] - m0.front[name]) }

	l := res.layer
	l["server.flushes_per_kreq"] = ratio(frontD("server.flushes"), kreq)
	l["server.bad_requests"] = allD("server.bad_requests")
	l["server.read_errors"] = allD("server.read_errors")

	evictions, admissions, rejections := nodeD("cache.evictions"), nodeD("cache.admissions"), nodeD("cache.rejections")
	l["cache.evictions_per_admit"] = ratio(evictions, admissions)
	l["cache.admit_reject_frac"] = ratio(rejections, admissions+rejections)
	l["cache.reject_doorkeeper_frac"] = ratio(nodeD("cache.admit_rejects.doorkeeper"), rejections)
	l["cache.reject_predicted_reuse_frac"] = ratio(nodeD("cache.admit_rejects.predicted_reuse"), rejections)
	l["cache.objects_end"] = m1.nodeSum("cache.objects")

	l["core.victims_per_kreq"] = ratio(evictions, kreq)
	l["core.model_evict_frac"] = 0
	if evictions > 0 {
		l["core.model_evict_frac"] = 1 - nodeD("raven.fallback_evictions")/evictions
	}
	rescores, cacheHits := nodeD("raven.score_rescores"), nodeD("raven.score_cache_hits")
	l["core.predictions_per_eviction"] = ratio(rescores, evictions)
	l["core.score_cache_hit_frac"] = ratio(cacheHits, cacheHits+rescores)
	l["core.slo_overruns"] = nodeD("raven.slo_overruns")
	l["core.guard_trips"] = nodeD("raven.guard_trips")
	l["core.health_transitions"] = nodeD("raven.health_transitions")
	l["core.rollbacks"] = nodeD("raven.rollbacks")
	l["core.health_end"] = 0
	for _, m := range m1.nodes {
		l["core.health_end"] = max(l["core.health_end"], float64(m["raven.health"]))
	}

	for _, name := range []string{"retries", "failovers", "hedges", "replicated_sets", "unroutable"} {
		l["cluster."+name] = 0
		if s.routed {
			l["cluster."+name] = frontD("router." + name)
		}
	}
	l["cluster.node_failures"] = 0
	if s.routed {
		for i := range m1.nodes {
			l["cluster.node_failures"] += frontD("router.node" + strconv.Itoa(i) + ".failures")
		}
	}

	l["lat_p99_us"] = float64(percentile(corrected, 99)) / 1e3
	l["bhr"] = ratio(float64(res.lat.hitByte+res.pipe.hitByte), getBytes)
	l["loadgen.host_speed"] = median(speed)
	l["loadgen.with_fits_rps"] = ratio(float64(res.pipe.ops), res.pipe.wall.Seconds())
	l["loadgen.with_fits_cpu_us_per_req"] = ratio(fleetCPU*1e6, ops)
	l["loadgen.cpu_us_per_req"] = ratio(res.loadgenCPUSeconds*1e6, ops)
	l["loadgen.lat_p999_us"] = float64(percentile(corrected, 99.9)) / 1e3
	l["loadgen.lat_max_ms"] = float64(percentile(raw, 100)) / 1e6
	l["loadgen.stall_count"] = float64(res.lat.stalls + res.pipe.stalls)
	l["loadgen.stall_ms_max"] = float64(max(res.lat.stallMaxNs, res.pipe.stallMaxNs)) / 1e6
}

// warnf prints a diagnostic to standard error.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
