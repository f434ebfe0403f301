package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/cache"
	"raven/internal/cluster"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/server"
	"raven/internal/sketch"
	"raven/internal/trace"
)

// servedDefaults mirrors the flag defaults of ravencached that shape
// the policy: the traced run builds the same stack in-process from
// public constructors, so it has to restate them.
// TestDefaultsMirrorBinary fails when `ravencached -h` drifts from it.
var servedDefaults = policy.Options{
	Seed:            42,
	CheckpointEvery: 1,
	ScoreCache:      true,
	Inference32:     true,
	DecisionBudget:  50 * time.Microsecond,
	Admission:       policy.AdmissionOptions{Mode: policy.AdmitLearned},
}

// routerSeedDefault mirrors ravenrouter's -seed default.
const routerSeedDefault = 42

// Span kinds: one per layer boundary the design already has.
const (
	spanRTT     = iota // client: request written → reply read
	spanRouter         // server → cluster.Router (server.Backend seam)
	spanBackend        // server → cache engine (server.Backend seam)
	spanObserve        // cache → policy OnHit/OnMiss (an inline fit hides here)
	spanAdmit          // cache → policy Admit
	spanVictim         // cache → policy Victim
	spanOnAdmit        // cache → policy OnAdmit
	spanOnEvict        // cache → policy OnEvict
	spanKinds
)

var spanNames = [spanKinds]string{"client.rtt", "cluster.route", "cache.op", "core.observe", "core.admit", "core.victim", "core.on_admit", "core.on_evict"}

// span is one timed call. parent is the id of the span that caused it
// (0 = none); op is the request id, the op's index in the stream, or
// opWarmUp / opPipe for the pipelined ranges, where many requests are
// in flight and only the long spans (the fits) are kept.
type span struct {
	id, parent int32
	op         int32
	kind       uint8
	node       int8
	start, end int64 // ns since the tracer's epoch
}

// longSpanNs is the duration from which a span is always kept: in the
// pipelined ranges (where short spans are dropped) and in the trace file.
const longSpanNs = int64(time.Millisecond)

// What tracer.curOp holds outside the depth-1 ranges.
const (
	opWarmUp = -1
	opPipe   = -2
)

// tracer collects spans in memory. Ids come from an atomic counter at
// begin, so a child knows its parent before the parent has ended; the
// record is appended at end. At depth 1 the client and the handler
// goroutines strictly alternate, so the lock is never contended.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32

	// Published by the client before each measured request.
	curOp  atomic.Int32
	curRTT atomic.Int32

	mu    sync.Mutex
	spans []span

	rttStart int64
}

func newTracer(depth1Ops int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 5*depth1Ops+1024)}
	t.curOp.Store(opWarmUp)
	return t
}

func (t *tracer) begin() (int32, int64) {
	//lint:allow hot-path-purity timing the eviction path is this decorator's purpose; it exists only in the traced run
	return t.nextID.Add(1), time.Since(t.epoch).Nanoseconds()
}

func (t *tracer) end(kind uint8, node int8, id, parent int32, start int64) {
	//lint:allow hot-path-purity timing the eviction path is this decorator's purpose; it exists only in the traced run
	end := time.Since(t.epoch).Nanoseconds()
	op := t.curOp.Load()
	if op < 0 && end-start < longSpanNs {
		return // a pipelined range keeps only the long spans
	}
	t.mu.Lock()
	//lint:allow hot-path-purity spans are kept in memory sized for the run up front; append only grows it if that estimate is exceeded
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, kind: kind, node: node, start: start, end: end})
	t.mu.Unlock()
}

// onSend and onReply bracket one measured round trip on the client.
func (t *tracer) onSend(i int) {
	id, start := t.begin()
	t.curOp.Store(int32(i))
	t.curRTT.Store(id)
	t.rttStart = start
}

func (t *tracer) onReply(int) {
	t.end(spanRTT, -1, t.curRTT.Load(), 0, t.rttStart)
}

// tracedBackend times the server→cache seam. It builds the request the
// way server.serve does, so the engine sees what ravencached's sees.
type tracedBackend struct {
	eng    *cache.Sharded
	tr     *tracer
	node   int8
	parent *atomic.Int32 // the running span that causes this one
	cur    atomic.Int32  // the running span of this backend
}

func (b *tracedBackend) Get(key trace.Key, size, ts int64) bool {
	id, t0 := b.tr.begin()
	b.cur.Store(id)
	hit := b.eng.Handle(trace.Request{Time: ts, Key: key, Size: size, Next: trace.NoNext})
	b.tr.end(spanBackend, b.node, id, b.parent.Load(), t0)
	return hit
}

func (b *tracedBackend) Set(key trace.Key, size, ts int64) bool {
	id, t0 := b.tr.begin()
	b.cur.Store(id)
	stored := b.eng.Set(trace.Request{Time: ts, Key: key, Size: size, Next: trace.NoNext})
	b.tr.end(spanBackend, b.node, id, b.parent.Load(), t0)
	return stored
}

func (b *tracedBackend) Stats() cache.Stats { return b.eng.StatsSnapshot() }

// tracedRouter times the server→cluster seam.
type tracedRouter struct {
	r   *cluster.Router
	tr  *tracer
	cur atomic.Int32
}

func (r *tracedRouter) Get(key trace.Key, size, ts int64) bool {
	id, t0 := r.tr.begin()
	r.cur.Store(id)
	hit := r.r.Get(key, size, ts)
	r.tr.end(spanRouter, -1, id, r.tr.curRTT.Load(), t0)
	return hit
}

func (r *tracedRouter) Set(key trace.Key, size, ts int64) bool {
	id, t0 := r.tr.begin()
	r.cur.Store(id)
	stored := r.r.Set(key, size, ts)
	r.tr.end(spanRouter, -1, id, r.tr.curRTT.Load(), t0)
	return stored
}

func (r *tracedRouter) Stats() cache.Stats { return r.r.Stats() }

// tracedPolicy times the cache→core seam: cache.Policy plus the
// optional faces the engine looks for (Admitter, Prefetcher, Unwrap,
// Flusher, Footprinter), each forwarded to what the wrapped policy
// offers. NextPrefetch is forwarded untimed: the benchmark leaves
// -prefetch-horizon at its default 0, so the call returns at once and
// its few nanoseconds stay in the cache layer's self time.
type tracedPolicy struct {
	inner cache.Policy
	b     *tracedBackend
}

// Each method brackets its own call: a shared helper taking a func
// value would make every policy method look reachable from every other
// in ravenlint's call graph.

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) OnHit(req cache.Request) {
	id, t0 := p.b.tr.begin()
	p.inner.OnHit(req)
	p.b.tr.end(spanObserve, p.b.node, id, p.b.cur.Load(), t0)
}

func (p *tracedPolicy) OnMiss(req cache.Request) {
	id, t0 := p.b.tr.begin()
	p.inner.OnMiss(req)
	p.b.tr.end(spanObserve, p.b.node, id, p.b.cur.Load(), t0)
}

func (p *tracedPolicy) OnAdmit(req cache.Request) {
	id, t0 := p.b.tr.begin()
	p.inner.OnAdmit(req)
	p.b.tr.end(spanOnAdmit, p.b.node, id, p.b.cur.Load(), t0)
}

func (p *tracedPolicy) OnEvict(key cache.Key) {
	id, t0 := p.b.tr.begin()
	p.inner.OnEvict(key)
	p.b.tr.end(spanOnEvict, p.b.node, id, p.b.cur.Load(), t0)
}

//lint:allow determinism-taint the clock only times the call; the victim returned is the wrapped policy's, untouched
func (p *tracedPolicy) Victim() (cache.Key, bool) {
	id, t0 := p.b.tr.begin()
	key, ok := p.inner.Victim()
	p.b.tr.end(spanVictim, p.b.node, id, p.b.cur.Load(), t0)
	return key, ok
}

func (p *tracedPolicy) Admit(req cache.Request) cache.Decision {
	id, t0 := p.b.tr.begin()
	d := cache.PolicyAdmit(p.inner, req)
	p.b.tr.end(spanAdmit, p.b.node, id, p.b.cur.Load(), t0)
	return d
}

func (p *tracedPolicy) NextPrefetch(now int64) (cache.Request, bool) {
	if pf, ok := p.inner.(cache.Prefetcher); ok {
		return pf.NextPrefetch(now)
	}
	return cache.Request{}, false
}
func (p *tracedPolicy) Unwrap() cache.Policy { return p.inner }
func (p *tracedPolicy) Flush() {
	if fl, ok := p.inner.(cache.Flusher); ok {
		fl.Flush()
	}
}
func (p *tracedPolicy) MetadataBytesPerObject() int64 {
	if fp, ok := p.inner.(cache.Footprinter); ok {
		return fp.MetadataBytesPerObject()
	}
	return 0
}

// stack is the served system built in-process: the same constructors
// the binaries call, minus the processes.
type stack struct {
	addr    string         // what the client dials
	front   *server.Server // the router's front-end; nil on a direct stack
	router  *cluster.Router
	nodes   []*server.Server
	engines []*cache.Sharded
}

// close shuts the front down first, then the router (whose pooled
// connections would otherwise hold the nodes in their drain timeout),
// then the nodes. It is idempotent.
func (st *stack) close() {
	if st.front != nil {
		_ = st.front.Close()
	}
	if st.router != nil {
		_ = st.router.Close()
	}
	for _, n := range st.nodes {
		_ = n.Close()
	}
}

// ravens returns each node's core.Raven, reached through the wrappers.
func (st *stack) ravens() []*core.Raven {
	var out []*core.Raven
	for _, e := range st.engines {
		if r, ok := cache.Unwrap(e.ShardPolicy(0)).(*core.Raven); ok {
			out = append(out, r)
		}
	}
	return out
}

// buildStack builds the served system for o in-process. With a tracer
// the timing decorators sit at the server→backend and cache→policy
// seams; without one the stack is built exactly as the binaries build
// it, which is the reference tracing.overhead_frac is measured against.
func buildStack(s spec, o *ops, tr *tracer) (*stack, error) {
	factory, err := policy.Lookup("raven")
	if err != nil {
		return nil, err
	}
	st := &stack{}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	nodes, capacity := 1, o.capacity
	if s.routed {
		nodes, capacity = routedNodes, o.capacity/routedNodes
	}
	var tRouter *tracedRouter
	if tr != nil && s.routed {
		tRouter = &tracedRouter{tr: tr}
	}
	var addrs []string
	for i := 0; i < nodes; i++ {
		ravenObs := &obs.RavenObs{}
		opts := servedDefaults
		opts.Capacity, opts.TrainWindow, opts.Obs = capacity, o.window, ravenObs
		perShard := factory.PerShard(opts.PerNode(i, nodes), 1)
		var srv *server.Server
		if tr == nil {
			srv, err = server.New(server.Config{Addr: "127.0.0.1:0", Capacity: capacity, Shards: 1, NewPolicy: perShard})
			if err != nil {
				return fail(err)
			}
		} else {
			b := &tracedBackend{tr: tr, node: int8(i), parent: &tr.curRTT}
			if tRouter != nil {
				b.parent = &tRouter.cur
			}
			b.eng, err = cache.NewSharded(capacity, 1, func(shard int, c int64) (cache.Policy, error) {
				p, err := perShard(shard, c)
				if err != nil {
					return nil, err
				}
				return &tracedPolicy{inner: p, b: b}, nil
			})
			if err != nil {
				return fail(err)
			}
			// server.New attaches these itself when it owns the engine;
			// behind a Backend the benchmark has to, or the traced
			// engine would skip the per-request metric updates.
			reg := obs.NewRegistry()
			cacheObs := &obs.ShardedCacheObs{}
			cacheObs.Init(1)
			cacheObs.Register(reg, "cache")
			b.eng.SetShardObs(0, cacheObs.Shard(0))
			srv, err = server.New(server.Config{Addr: "127.0.0.1:0", Backend: b, Registry: reg})
			if err != nil {
				return fail(err)
			}
			st.engines = append(st.engines, b.eng)
		}
		ravenObs.Register(srv.Metrics(), "raven")
		st.nodes = append(st.nodes, srv)
		addrs = append(addrs, srv.Addr())
	}
	if !s.routed {
		st.addr = addrs[0]
		return st, nil
	}
	st.router, err = cluster.New(cluster.Config{Nodes: addrs, Seed: routerSeedDefault})
	if err != nil {
		return fail(err)
	}
	var backend server.Backend = st.router
	if tRouter != nil {
		tRouter.r = st.router
		backend = tRouter
	}
	st.front, err = server.New(server.Config{Addr: "127.0.0.1:0", Backend: backend, Registry: st.router.Metrics()})
	if err != nil {
		return fail(err)
	}
	st.addr = st.front.Addr()
	return st, nil
}

// The tracing itself is priced on the head of the stream: overheadOps
// ops replayed at depth 1 on the traced stack and on an undecorated one,
// overheadBlock ops on one, then the same ops on the other, so that both
// see the same minutes of the host.
const (
	overheadOps   = 20000
	overheadBlock = 1000
)

// tracingOverhead replays ops [0, head) on both connections in
// alternating blocks and returns the traced stack's median round trip
// over the plain stack's, minus one.
func tracingOverhead(o *ops, head int, traced, plain *conn, tr *tracer) (float64, error) {
	var withSpans, without []int64
	for lo := 0; lo < head; lo += overheadBlock {
		hi := min(lo+overheadBlock, head)
		a, err := traced.roundTrips(o, lo, hi, tr.onSend, tr.onReply)
		if err != nil {
			return 0, fmt.Errorf("traced replay: %w", err)
		}
		b, err := plain.roundTrips(o, lo, hi, nil, nil)
		if err != nil {
			return 0, fmt.Errorf("untraced reference replay: %w", err)
		}
		withSpans, without = append(withSpans, a.rtts...), append(without, b.rtts...)
	}
	return ratio(float64(percentile(sortedCopy(withSpans), 50)), float64(percentile(sortedCopy(without), 50))) - 1, nil
}

// runTraced performs the traced run: the workload replayed in-process
// with spans at every layer boundary - the lat range at depth 1, so
// every client round trip nests exactly one backend span and its policy
// children; the warm-up and the pipe range pipelined as in the timed
// run, keeping only the long spans (the fits) - and the direct timings
// of the leaf packages. It returns the time-based per-layer metrics and
// writes the trace file.
func runTraced(s spec, seed int64, o *ops, outDir string) (values, error) {
	l := values{"trace.gen_s": o.genSeconds}
	head := min(overheadOps, o.warmEnd/4)
	tr := newTracer(head + o.latEnd - o.warmEnd)
	st, err := buildStack(s, o, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	c, err := dialBinary(st.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()

	// The reference: the same stack without decorators. It serves the
	// head of the stream and is gone before the warm-up's fit.
	ref, err := buildStack(s, o, nil)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	rc, err := dialBinary(ref.addr)
	if err != nil {
		return nil, err
	}
	l["tracing.overhead_frac"], err = tracingOverhead(o, head, c, rc, tr)
	rc.close()
	ref.close()
	if err != nil {
		return nil, err
	}

	tr.curOp.Store(opWarmUp)
	if _, err := warmUp(s, o, c, head, st.addr); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	lat, err := c.roundTrips(o, o.warmEnd, o.latEnd, tr.onSend, tr.onReply)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	tr.curOp.Store(opPipe)
	pipe, err := c.pipeline(o, o.latEnd, o.len(), pipeDepth)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	c.close()
	// Closing the servers joins the handler goroutines, so every span
	// they recorded is visible from here on.
	st.close()
	ravens := st.ravens()

	spanMetrics(l, tr.spans, o.warmEnd, (lat.wall + pipe.wall).Nanoseconds())
	fitMetrics(l, tr.spans, ravens)
	leafTimings(l, o, ravens)
	return l, writeTrace(filepath.Join(outDir, "trace_"+s.name+".json"), s, seed, o, tr.spans)
}

// spanMetrics turns the spans of the lat range (op >= from) into the
// per-layer time metrics, and the long observe spans of the lat and
// pipe ranges into the fit metrics. A layer's self time is its span
// minus its child spans.
func spanMetrics(l values, spans []span, from int, measuredWallNs int64) {
	maxID := int32(0)
	for i := range spans {
		maxID = max(maxID, spans[i].id)
	}
	children := make([]int64, maxID+1)
	for i := range spans {
		if sp := &spans[i]; int(sp.op) >= from && sp.parent > 0 {
			children[sp.parent] += sp.end - sp.start
		}
	}
	var wire, hop, opSelf, admit, observe, victim, fits []int64
	for i := range spans {
		sp := &spans[i]
		d := sp.end - sp.start
		if sp.op == opPipe && sp.kind == spanObserve && d >= stallNs {
			fits = append(fits, d)
		}
		if int(sp.op) < from {
			continue
		}
		switch sp.kind {
		case spanRTT:
			wire = append(wire, d-children[sp.id])
		case spanRouter:
			hop = append(hop, d-children[sp.id])
		case spanBackend:
			opSelf = append(opSelf, d-children[sp.id])
		case spanAdmit:
			admit = append(admit, d)
		case spanVictim:
			victim = append(victim, d)
		case spanObserve:
			if d >= stallNs {
				fits = append(fits, d)
			} else {
				observe = append(observe, d)
			}
		}
	}
	p := func(name string, v []int64) {
		s := sortedCopy(v)
		l[name+"_p50"] = float64(percentile(s, 50))
		l[name+"_p99"] = float64(percentile(s, 99))
	}
	p("server.wire_self_ns", wire)
	p("cluster.hop_self_ns", hop)
	p("cache.op_self_ns", opSelf)
	p("cache.admit_ns", admit)
	p("core.observe_ns", observe)
	p("core.victim_ns", victim)

	sf := sortedCopy(fits)
	var fitSum int64
	for _, d := range sf {
		fitSum += d
	}
	l["core.fit_count"] = float64(len(sf))
	l["core.fit_ms_p50"] = float64(percentile(sf, 50)) / 1e6
	l["core.fit_ms_max"] = float64(percentile(sf, 100)) / 1e6
	l["core.fit_time_frac"] = ratio(float64(fitSum), float64(measuredWallNs))
}

// fitMetrics pairs what Raven.TrainStats says about each fit (epochs,
// objects) with how long the fit's observe span lasted, over the whole
// traced run including the warm-up.
func fitMetrics(l values, spans []span, ravens []*core.Raven) {
	var fitNs int64
	for i := range spans {
		if sp := &spans[i]; sp.kind == spanObserve && sp.end-sp.start >= stallNs {
			fitNs += sp.end - sp.start
		}
	}
	var fits, epochs, objects float64
	for _, r := range ravens {
		for _, rec := range r.TrainStats {
			if rec.Skipped {
				continue
			}
			fits++
			epochs += float64(rec.Result.Epochs)
			objects += float64(rec.Objects)
		}
	}
	l["nn.fit_epochs_mean"] = ratio(epochs, fits)
	l["nn.fit_objects_mean"] = ratio(objects, fits)
	l["nn.fit_ms_per_epoch"] = ratio(float64(fitNs)/1e6, epochs)
}

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// leafTimings times the leaf packages directly over the workload's own
// keys: the sketches the admission front is made of, the metrics
// histogram every request feeds, the router's ring lookup, and the
// kernels of the model the traced run trained.
func leafTimings(l values, o *ops, ravens []*core.Raven) {
	n := min(o.len(), 200000)
	entries := 4096 // policy.Options.entries() for capacities of 1 MiB and more
	cm := sketch.NewCountMin(4, 4*entries, uint64(16*entries))
	var sink uint32
	l["sketch.cm_add_est_ns"] = perCall(n, func(i int) {
		cm.Add(uint64(o.key[i]))
		sink += cm.Estimate(uint64(o.key[i]))
	})
	bloom := sketch.NewBloom(16 * entries)
	l["sketch.bloom_add_ns"] = perCall(n, func(i int) {
		if bloom.AddIfMissing(uint64(o.key[i])) {
			sink++
		}
	})
	var hist obs.Histogram
	l["obs.hist_observe_ns"] = perCall(n, func(i int) { hist.Observe(int64(o.size[i]) << 4) })

	ring := cluster.NewRing(routerSeedDefault, 0)
	l["cluster.ring_lookup_ns"] = 0
	if ring.Add("127.0.0.1:1") == nil && ring.Add("127.0.0.1:2") == nil {
		var buf [2]int
		l["cluster.ring_lookup_ns"] = perCall(n, func(i int) {
			sink += uint32(len(ring.LookupN(trace.Key(o.key[i]), 2, buf[:0])))
		})
	}

	l["nn.predict_batch_ns_per_cand"], l["nn.predict_batch32_ns_per_cand"], l["nn.step_embed_ns"] = 0, 0, 0
	var net *nn.Net
	for _, r := range ravens {
		if r.Net() != nil {
			net = r.Net()
			break
		}
	}
	if net != nil {
		const cands = 64 // core.Config.CandidateSample default
		in := make([]nn.PredictInput, cands)
		for j := range in {
			h := net.ZeroState()
			for k := 0; k <= j%8; k++ {
				net.StepEmbed(h, float64(16*(j+k+1)))
			}
			in[j] = nn.PredictInput{H: h, Size: float64(o.size[j%o.len()]), Age: float64(100 * j)}
		}
		out := make([]nn.Mixture, cands)
		scratch := net.NewPredictScratch()
		l["nn.predict_batch_ns_per_cand"] = perCall(500, func(int) { net.PredictBatch(scratch, in, out) }) / cands
		frozen := net.Freeze32()
		scratch32 := frozen.NewScratch()
		l["nn.predict_batch32_ns_per_cand"] = perCall(500, func(int) { frozen.PredictBatch(scratch32, in, out) }) / cands
		h := net.ZeroState()
		l["nn.step_embed_ns"] = perCall(n, func(i int) { net.StepEmbed(h, float64(o.size[i])) })
	}
	if sink == 1<<31 {
		warnf("sink %d", sink) // keeps the timed results alive
	}
}

// traceFile is the on-disk form of a traced run: every span of at
// least 1 ms plus every span of one op in 64.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	OpsFNV64 string     `json:"ops_fnv64"`
	Kinds    []string   `json:"kinds"`
	Columns  []string   `json:"columns"`
	Total    int        `json:"spans_recorded"`
	Spans    [][7]int64 `json:"spans"`
}

func writeTrace(path string, s spec, seed int64, o *ops, spans []span) error {
	tf := traceFile{
		Workload: s.name, Seed: seed, OpsFNV64: fmt.Sprintf("%016x", o.hash),
		Kinds:   spanNames[:],
		Columns: []string{"id", "parent", "op", "kind", "node", "start_ns", "end_ns"},
		Total:   len(spans),
	}
	for i := range spans {
		sp := &spans[i]
		if sp.end-sp.start >= longSpanNs || (sp.op >= 0 && sp.op%64 == 0) {
			tf.Spans = append(tf.Spans, [7]int64{int64(sp.id), int64(sp.parent), int64(sp.op), int64(sp.kind), int64(sp.node), sp.start, sp.end})
		}
	}
	sort.Slice(tf.Spans, func(i, j int) bool { return tf.Spans[i][0] < tf.Spans[j][0] })
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
