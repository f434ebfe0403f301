package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/cache"
	"raven/internal/obs"
	"raven/internal/server"
	"raven/internal/trace"
)

// Router timings. No configuration disarms the round-trip deadline.
const (
	requestTimeout = 250 * time.Millisecond // bounds each backend round trip
	probeInterval  = 250 * time.Millisecond // the health-probe period
	halfOpenAfter  = time.Second            // an ejected node's cool-down before a recovery probe
)

const (
	// replicas is the ring lookup fan-out: a key's owner and one failover
	// successor.
	replicas = 2
	// maxRetries is how many retry rounds a burst gets for the ops a
	// failed round trip left unanswered.
	maxRetries = 2
	// retryBackoff is the sleep before the first retry round, doubling
	// per round.
	retryBackoff = 5 * time.Millisecond
	// failLimit is the consecutive-failure count per breaker rung.
	failLimit = 3

	// burstPoolSize bounds the idle burst scratch a router keeps: enough
	// for the front connections of a busy router to serve bursts side by
	// side without allocating, at a few KiB each for depth-32 clients.
	burstPoolSize = 32
)

// faults injects failures into the router for this package's tests;
// nil in production. Both hooks run on request goroutines, keyed by
// node name, so a test can deterministically fail one node's traffic
// while others serve.
type faults struct {
	// Dial, when non-nil, is consulted before dialing a node; a non-nil
	// error fails the dial.
	Dial func(node string) error
	// BeforeOp, when non-nil, is consulted before each round trip (a
	// batch of requests, or a probe) to a node; a non-nil error fails
	// the round trip without touching the wire.
	BeforeOp func(node string) error
}

// Config parameterizes a Router.
type Config struct {
	// Nodes are the backend addresses forming the ring; the fleet is
	// fixed for the router's lifetime.
	Nodes []string
	// Seed makes ring placement deterministic; two routers with equal
	// (Seed, Nodes) agree on every key's owner.
	Seed int64

	// faults is the package's tests' failure injection; nil in
	// production.
	faults *faults

	// The package's tests shorten the timings: a positive value
	// replaces requestTimeout, probeInterval or halfOpenAfter, and a
	// negative probe stops the background prober so the test drives
	// ProbePass itself.
	timeout, probe, halfOpen time.Duration
}

// routerMetrics are the router-wide obs handles (per-node handles live
// on each node).
type routerMetrics struct {
	failovers  *obs.Counter // retried ops moved to a different replica
	retries    *obs.Counter // ops re-sent in a retry round
	probes     *obs.Counter // health probes sent
	unroutable *obs.Counter // ops left with no admitted replica to try
}

// Router spreads cache traffic over a fleet of ravencached nodes via a
// deterministic consistent-hash ring, with per-node circuit breakers,
// bounded retry rounds that fail over along the ring, and health
// probing. It implements server.Backend and server.BatchBackend, so a
// server.Server can front it with the full hardened protocol loop and
// hand it each connection's pipelined requests a burst at a time.
//
// Failure semantics: a request whose every attempt fails is reported as
// a miss — the cluster tier degrades to origin traffic, it never errors
// toward the client.
type Router struct {
	cfg Config
	reg *obs.Registry
	met routerMetrics

	// ring and nodes are built once in New and read-only afterwards;
	// nodes[i] is the member the ring calls index i.
	ring  *Ring
	nodes []*node

	// bursts recycles per-burst scratch, so a warmed-up burst allocates
	// nothing. Like a node's pool it caps what idles, not concurrency:
	// bursts beyond it work in fresh scratch that is dropped afterwards.
	bursts chan *burst

	// Aggregate serving stats (server.Backend contract).
	requests atomic.Int64
	hits     atomic.Int64
	reqBytes atomic.Int64
	hitBytes atomic.Int64
	sets     atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Router over cfg.Nodes and starts the health prober.
func New(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if cfg.timeout <= 0 {
		cfg.timeout = requestTimeout
	}
	if cfg.probe == 0 {
		cfg.probe = probeInterval
	}
	if cfg.halfOpen <= 0 {
		cfg.halfOpen = halfOpenAfter
	}
	reg := obs.NewRegistry()
	r := &Router{
		cfg:    cfg,
		reg:    reg,
		ring:   NewRing(cfg.Seed, defaultVNodes),
		nodes:  make([]*node, len(cfg.Nodes)),
		bursts: make(chan *burst, burstPoolSize),
		stop:   make(chan struct{}),
		met: routerMetrics{
			failovers:  reg.Counter("router.failovers"),
			retries:    reg.Counter("router.retries"),
			probes:     reg.Counter("router.probes"),
			unroutable: reg.Counter("router.unroutable"),
		},
	}
	for _, addr := range cfg.Nodes {
		if err := r.ring.Add(addr); err != nil {
			return nil, err
		}
	}
	// Metrics are numbered in Config.Nodes order, the slice in ring order.
	for idx, addr := range cfg.Nodes {
		r.nodes[sort.SearchStrings(r.ring.Members(), addr)] = r.buildNode(addr, idx)
	}
	if cfg.probe > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// buildNode builds the idx-th configured node with its breaker and dialer.
func (r *Router) buildNode(addr string, idx int) *node {
	br := NewBreaker(failLimit, r.cfg.halfOpen, nil)
	dial := func() (*server.Client, error) {
		if f := r.cfg.faults; f != nil && f.Dial != nil {
			if err := f.Dial(addr); err != nil {
				return nil, err
			}
		}
		cl, err := server.Dial(addr)
		if err != nil {
			return nil, err
		}
		cl.Timeout = r.cfg.timeout
		return cl, nil
	}
	return newNode(addr, idx, br, r.reg, dial)
}

// Close stops the prober and closes every pooled connection.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	for _, n := range r.nodes {
		n.drainPool()
	}
	return nil
}

// Fingerprint returns the ring's placement fingerprint (see
// Ring.Fingerprint).
func (r *Router) Fingerprint() uint64 { return r.ring.Fingerprint() }

// NodeStates returns each member's breaker state, for operators and
// tests.
func (r *Router) NodeStates() map[string]State {
	out := make(map[string]State, len(r.nodes))
	for _, n := range r.nodes {
		out[n.name] = n.breaker.State()
	}
	return out
}

// Metrics returns the registry holding the router.* metrics; pass it
// to server.Config so the router process serves them over METRICS.
func (r *Router) Metrics() *obs.Registry { return r.reg }

// batch is one round trip to one node: the requests of a burst that
// route to it, in the order the client sent them, on one checked-out
// connection. A batch without ops is a bare PING, the health probe.
type batch struct {
	n     *node
	allow bool // n's breaker admitted traffic when the round was planned
	cl    *server.Client
	t0    time.Time
	ops   []server.Op
	at    []int // each op's position in the burst
	res   []bool
	// answered counts the leading ops the node answered; the rest
	// failed with the round trip.
	answered int
}

// retry is an op a round trip left unanswered: its position in the
// burst and the node that failed it.
type retry struct {
	i      int
	failed *node
}

// burst is the scratch one ServeBatch call works in.
type burst struct {
	cands   []*node // per op: the owner, then its failover replica
	fan     int     // candidates per op: min(replicas, members)
	batches []batch // the current round: one batch per node
	retries []retry // what the current round left unanswered
}

// plan looks up every op's candidates.
func (r *Router) plan(b *burst, ops []server.Op) {
	var ibuf [replicas]int
	b.cands, b.fan = b.cands[:0], min(replicas, len(r.nodes))
	for _, op := range ops {
		for _, i := range r.ring.LookupN(op.Key, replicas, ibuf[:0]) {
			// Burst scratch grows to the largest burst seen, then is reused.
			b.cands = append(b.cands, r.nodes[i])
		}
	}
}

// batchFor returns the round's batch for n, opening it — and asking n's
// breaker once per round, not once per op — on first use. The pointer is
// valid until the next call.
func (b *burst) batchFor(n *node) *batch {
	for j := range b.batches {
		if b.batches[j].n == n {
			return &b.batches[j]
		}
	}
	if len(b.batches) < cap(b.batches) {
		b.batches = b.batches[:len(b.batches)+1] // reuse the slot's slices
	} else {
		// One slot per node, opened once and reused.
		b.batches = append(b.batches, batch{})
	}
	g := &b.batches[len(b.batches)-1]
	g.n, g.allow, g.answered = n, n.breaker.Allow(), 0
	g.ops, g.at, g.res = g.ops[:0], g.at[:0], g.res[:0]
	return g
}

// route queues op (position i in the burst) on the first of its
// candidates whose breaker admits traffic, trying n of them from index
// from on, wrapping. It returns that candidate's index, or -1 when none
// admits traffic.
func (b *burst) route(i int, op server.Op, from, n int) int {
	cands := b.cands[i*b.fan : (i+1)*b.fan]
	for off := 0; off < n; off++ {
		c := (from + off) % b.fan
		if g := b.batchFor(cands[c]); g.allow {
			// The batch's slices are reused; they grow to the largest batch once.
			g.ops, g.at, g.res = append(g.ops, op), append(g.at, i), append(g.res, false)
			return c
		}
	}
	return -1
}

// settle copies the round's answers into res and collects the ops it
// left unanswered in b.retries.
func (b *burst) settle(res []bool) {
	b.retries = b.retries[:0]
	for j := range b.batches {
		g := &b.batches[j]
		for k, i := range g.at {
			if k < g.answered {
				res[i] = g.res[k]
			} else {
				// Burst scratch, reused like the batches.
				b.retries = append(b.retries, retry{i, g.n})
			}
		}
	}
}

// reroute plans a retry round: each op the last round left unanswered
// goes to its next admitted candidate after the node that failed it,
// and back to that node only when it is the key's only replica. An op
// with no such candidate stays a miss. It reports whether any op was
// queued.
func (r *Router) reroute(b *burst, ops []server.Op) bool {
	b.batches = b.batches[:0]
	queued := false
	for _, t := range b.retries {
		ci := 0
		for c, n := range b.cands[t.i*b.fan : (t.i+1)*b.fan] {
			if n == t.failed {
				ci = c
			}
		}
		// The fan-1 candidates after ci, or ci itself when it is the only one.
		c := b.route(t.i, ops[t.i], ci+1, max(1, b.fan-1))
		if c < 0 {
			r.met.unroutable.Inc()
			continue
		}
		r.met.retries.Inc()
		if c != ci {
			r.met.failovers.Inc()
		}
		queued = true
	}
	return queued
}

// roundTrips runs the batches: every one is written before any reply is
// awaited, so the nodes work on their shares side by side.
func (r *Router) roundTrips(b *burst) {
	for j := range b.batches {
		if len(b.batches[j].ops) > 0 {
			r.send(&b.batches[j])
		}
	}
	for j := range b.batches {
		if len(b.batches[j].ops) > 0 {
			r.recv(&b.batches[j])
		}
	}
}

// send checks a connection out of g's node and writes the batch to it
// in one flush; a probe's whole PING round trip happens here, leaving
// recv only the accounts. A round trip that fails here answered nothing.
func (r *Router) send(g *batch) {
	g.cl, g.answered = nil, 0
	if f := r.cfg.faults; f != nil && f.BeforeOp != nil && f.BeforeOp(g.n.name) != nil {
		r.failed(g)
		return
	}
	cl, err := g.n.get()
	if err != nil {
		r.failed(g)
		return
	}
	// One clock read per batch, not per op.
	g.t0 = time.Now()
	if len(g.ops) == 0 {
		err = cl.Ping()
	} else {
		err = cl.Send(g.ops)
	}
	if err != nil {
		g.n.put(cl, false)
		r.failed(g)
		return
	}
	g.cl = cl
}

// recv reads the replies to the batch send wrote and settles the
// node's accounts. Answered ops count as ops — probes answer none, so
// router.node<i>.ops reconciles exactly against the node's own
// cache.requests + cache.sets (the node likewise keeps PING out of its
// request counters). A connection that failed mid-batch is closed: its
// framing state is unknown.
func (r *Router) recv(g *batch) {
	if g.cl == nil {
		return // send already failed the round trip
	}
	n, err := g.cl.Recv(g.ops, g.res)
	g.n.met.latencyNs.Observe(time.Since(g.t0).Nanoseconds())
	g.n.put(g.cl, err == nil)
	g.cl, g.answered = nil, n
	g.n.met.ops.Add(int64(n))
	if err != nil {
		r.failed(g)
	} else if g.n.breaker.Success() {
		g.n.observeState()
	}
}

// failed accounts a failed round trip. Every op the node did not answer
// counts one failure: it may have served any of them, so that
// ops <= served <= ops + failures holds on every node whatever was in
// flight when the connection died. A failed probe counts one. The
// breaker counts one failure per failed round trip, not per op, so a
// node is ejected after 2·failLimit failed round trips in a row however
// deep the client pipelines.
func (r *Router) failed(g *batch) {
	g.n.met.failures.Add(int64(max(1, len(g.ops)-g.answered)))
	if g.n.breaker.Failure() {
		g.n.observeState()
	}
}

// observeState mirrors a node's breaker state to its gauge; called
// when a round trip's outcome moved it.
func (n *node) observeState() { n.met.state.Set(int64(n.breaker.State())) }

// ServeBatch implements server.BatchBackend: the burst of requests a
// front connection had buffered is forwarded as one batch per node.
// Each op goes to its key's owner — the first replica whose breaker
// admits traffic — and the batches are written, flushed once each, and
// read back in order, so the backend round trip is paid once per node
// per burst and every node sees its requests in the order the client
// sent them. The ops a failed round trip left unanswered are re-routed
// in up to maxRetries further rounds of the same burst, each one batch
// per node after one backoff (retryBackoff, doubling, at most a
// second); an op whose every round failed is a miss. Every request
// ravenrouter serves crosses this hop; TestServingPathAllocFree holds
// it to 0 allocs/op.
func (r *Router) ServeBatch(ops []server.Op, res []bool) {
	var b *burst
	select {
	case b = <-r.bursts:
	default:
		// Allocated when the pool is empty, then recycled burst after burst.
		b = new(burst)
	}
	r.plan(b, ops)

	var gets, getBytes, hits, hitBytes int64
	b.batches = b.batches[:0]
	for i, op := range ops {
		res[i] = false
		if !op.Set {
			gets++
			getBytes += op.Size
		}
		if b.route(i, op, 0, b.fan) < 0 {
			r.met.unroutable.Inc()
		}
	}
	r.requests.Add(gets)
	r.reqBytes.Add(getBytes)
	r.sets.Add(int64(len(ops)) - gets)
	r.roundTrips(b)
	for round := 0; ; round++ {
		b.settle(res)
		if round == maxRetries || !r.reroute(b, ops) {
			break
		}
		time.Sleep(min(retryBackoff<<round, time.Second))
		r.roundTrips(b)
	}
	for i, op := range ops {
		if res[i] && !op.Set {
			hits++
			hitBytes += op.Size
		}
	}
	r.hits.Add(hits)
	r.hitBytes.Add(hitBytes)
	select {
	case r.bursts <- b:
	default:
	}
}

// Get implements server.Backend: a burst of one.
func (r *Router) Get(key trace.Key, size, ts int64) bool {
	ops, res := [1]server.Op{{Key: key, Size: size, Time: ts}}, [1]bool{}
	r.ServeBatch(ops[:], res[:])
	return res[0]
}

// Set implements server.Backend: a burst of one.
func (r *Router) Set(key trace.Key, size, ts int64) bool {
	ops, res := [1]server.Op{{Set: true, Key: key, Size: size, Time: ts}}, [1]bool{}
	r.ServeBatch(ops[:], res[:])
	return res[0]
}

// Stats implements server.Backend: the router's own view of the
// traffic it served. Node-local counters (evictions, admissions) live
// on the nodes; fetch their METRICS directly for those.
func (r *Router) Stats() cache.Stats {
	return cache.Stats{
		Requests: r.requests.Load(),
		Hits:     r.hits.Load(),
		ReqBytes: r.reqBytes.Load(),
		HitBytes: r.hitBytes.Load(),
		Sets:     r.sets.Load(),
	}
}

// probeLoop drives ProbePass on the configured interval until Close.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.probe)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.ProbePass()
		}
	}
}

// ProbePass pings every node once: routable nodes to catch silent
// death (consecutive probe failures climb the breaker ladder and eject
// the node), ejected nodes through the breaker's half-open gate so a
// recovered node is re-admitted. The package's tests stop the
// background prober and call it themselves, to probe deterministically.
func (r *Router) ProbePass() {
	for _, n := range r.nodes {
		if !n.breaker.Allow() && !n.breaker.AllowProbe() {
			continue
		}
		r.met.probes.Inc()
		probe := batch{n: n}
		r.send(&probe)
		r.recv(&probe)
	}
}
