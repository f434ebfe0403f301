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

// Router defaults, applied when the corresponding Config field is zero.
const (
	defaultReplicas       = 2
	defaultRequestTimeout = 250 * time.Millisecond
	defaultMaxRetries     = 2
	defaultRetryBackoff   = 5 * time.Millisecond
	defaultProbeInterval  = 250 * time.Millisecond
	defaultFailLimit      = 3
	defaultHalfOpenAfter  = time.Second

	// maxReplicas caps the lookup fan-out so the per-request candidate
	// scratch can live on the stack.
	maxReplicas = 8

	// burstPoolSize bounds the idle burst scratch a router keeps: enough
	// for the front connections of a busy router to serve bursts side by
	// side without allocating, at a few KiB each for depth-32 clients.
	burstPoolSize = 32
)

// Faults injects failures into the router for tests; nil in production.
// Both hooks run on request goroutines, keyed by node name, so a test
// can deterministically fail one node's traffic while others serve.
type Faults struct {
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
	// (Seed, VNodes, Nodes) agree on every key's owner.
	Seed int64
	// VNodes is the virtual-node count per member (0 = 128).
	VNodes int
	// Replicas is the ring lookup fan-out: the owner plus Replicas-1
	// failover successors (0 = 2, capped at 8 and the node count).
	Replicas int

	// RequestTimeout bounds each backend round trip (0 = 250ms).
	RequestTimeout time.Duration
	// MaxRetries is how many extra attempts a request gets after its
	// first failure, failing over across replicas (0 = 2; negative
	// disables retries).
	MaxRetries int
	// RetryBackoff is the initial sleep before a retry, doubling per
	// attempt (0 = 5ms).
	RetryBackoff time.Duration

	// ProbeInterval is the health-probe period (0 = 250ms; negative
	// disables the background prober — tests then drive ProbePass
	// directly).
	ProbeInterval time.Duration
	// FailLimit is the consecutive-failure count per breaker rung
	// (0 = 3).
	FailLimit int
	// HalfOpenAfter is the cool-down before an ejected node gets a
	// recovery probe (0 = 1s).
	HalfOpenAfter time.Duration

	// PoolSize bounds each node's idle-connection pool (0 = 4).
	PoolSize int

	// Registry receives the router.* metrics; pass the same registry to
	// server.Config so the router process serves them over METRICS.
	// nil creates a private registry.
	Registry *obs.Registry
	// Faults injects failures for tests; nil in production.
	Faults *Faults
}

// routerMetrics are the router-wide obs handles (per-node handles live
// on each node).
type routerMetrics struct {
	failovers  *obs.Counter // attempts moved to a different replica
	retries    *obs.Counter // extra attempts after a failure
	probes     *obs.Counter // health probes sent
	unroutable *obs.Counter // requests with every replica ejected
}

// Router spreads cache traffic over a fleet of ravencached nodes via a
// deterministic consistent-hash ring, with per-node circuit breakers,
// bounded retry-with-backoff failover, and health probing. It
// implements server.Backend and server.BatchBackend, so a server.Server
// can front it with the full hardened protocol loop and hand it each
// connection's pipelined requests a burst at a time.
//
// Failure semantics: a request whose every attempt fails is reported as
// a miss — the cluster tier degrades to origin traffic, it never errors
// toward the client.
type Router struct {
	cfg      Config
	replicas int
	reg      *obs.Registry
	met      routerMetrics

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

// New builds a Router over cfg.Nodes and starts the health prober
// (unless ProbeInterval < 0).
func New(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = defaultReplicas
	}
	if cfg.Replicas > maxReplicas {
		cfg.Replicas = maxReplicas
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = defaultRequestTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = defaultMaxRetries
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.FailLimit == 0 {
		cfg.FailLimit = defaultFailLimit
	}
	if cfg.HalfOpenAfter == 0 {
		cfg.HalfOpenAfter = defaultHalfOpenAfter
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		cfg:      cfg,
		replicas: cfg.Replicas,
		reg:      reg,
		ring:     NewRing(cfg.Seed, cfg.VNodes),
		nodes:    make([]*node, len(cfg.Nodes)),
		bursts:   make(chan *burst, burstPoolSize),
		stop:     make(chan struct{}),
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
	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// buildNode builds the idx-th configured node with its breaker and dialer.
func (r *Router) buildNode(addr string, idx int) *node {
	br := NewBreaker(r.cfg.FailLimit, r.cfg.HalfOpenAfter, nil)
	dial := func() (*server.Client, error) {
		if f := r.cfg.Faults; f != nil && f.Dial != nil {
			if err := f.Dial(addr); err != nil {
				return nil, err
			}
		}
		cl, err := server.DialBinary(addr)
		if err != nil {
			return nil, err
		}
		cl.Timeout = r.cfg.RequestTimeout
		return cl, nil
	}
	return newNode(addr, idx, br, r.cfg.PoolSize, r.reg, dial)
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

// Metrics returns the registry holding the router.* metrics.
func (r *Router) Metrics() *obs.Registry { return r.reg }

// Replicas returns the effective lookup fan-out after defaulting.
func (r *Router) Replicas() int { return r.replicas }

// batch is one round trip to one node: the requests of a burst that
// route to it, in the order the client sent them, on one checked-out
// connection. A batch without ops is a bare PING, the health probe.
type batch struct {
	n     *node
	allow bool // n's breaker admitted traffic when the burst was planned
	cl    *server.Client
	t0    time.Time
	ops   []server.Op
	at    []int // each op's position in the burst
	res   []bool
	// answered counts the leading ops the node answered; the rest
	// failed with the round trip.
	answered int
}

// burst is the scratch one ServeBatch call works in.
type burst struct {
	cands   []*node // per op: the owner, then its failover replicas
	fan     int     // candidates per op: min(replicas, members)
	batches []batch // one batch per node
	one     batch   // a retried op's round trip
}

// plan looks up every op's candidates.
func (r *Router) plan(b *burst, ops []server.Op) {
	var ibuf [maxReplicas]int
	b.cands, b.fan = b.cands[:0], min(r.replicas, len(r.nodes))
	for _, op := range ops {
		for _, i := range r.ring.LookupN(op.Key, r.replicas, ibuf[:0]) {
			// Burst scratch grows to the largest burst seen, then is reused.
			b.cands = append(b.cands, r.nodes[i])
		}
	}
}

// batchFor returns the burst's batch for n, opening it — and asking n's
// breaker once per burst, not once per op — on first use. The pointer is
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
// candidates whose breaker admits traffic, and reports whether there
// was one.
func (b *burst) route(i int, op server.Op) bool {
	for _, n := range b.cands[i*b.fan : (i+1)*b.fan] {
		if g := b.batchFor(n); g.allow {
			// The batch's slices are reused; they grow to the largest batch once.
			g.ops, g.at, g.res = append(g.ops, op), append(g.at, i), append(g.res, false)
			return true
		}
	}
	return false
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
	if f := r.cfg.Faults; f != nil && f.BeforeOp != nil && f.BeforeOp(g.n.name) != nil {
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
// breaker climbs once per failed round trip, not once per op, so a node
// is ejected after FailLimit failed round trips per rung however deep
// the client pipelines.
func (r *Router) failed(g *batch) {
	g.n.met.failures.Add(int64(max(1, len(g.ops)-g.answered)))
	if g.n.breaker.Failure() {
		g.n.observeState()
	}
}

// observeState mirrors a node's breaker state to its gauge; called
// when a round trip's outcome moved it.
func (n *node) observeState() { n.met.state.Set(int64(n.breaker.State())) }

// doOp is the slow path of an op whose batch round trip failed. That
// was its first attempt, on the node failed; the others run here one
// at a time, as bursts of one: bounded retry with exponential backoff,
// failing over to the next routable replica on every failure. An op
// whose every attempt failed, or whose every replica is ejected, is a
// miss.
func (r *Router) doOp(b *burst, op server.Op, cands []*node, failed *node) bool {
	ci := 0 // index of the node used by the previous attempt
	for i, n := range cands {
		if n == failed {
			ci = i
		}
	}
	backoff := r.cfg.RetryBackoff
	g := &b.one
	for a := 0; a < r.cfg.MaxRetries; a++ {
		// Next routable candidate after the cursor; the node that just
		// failed is retried only when it is the key's only replica.
		next := -1
		for off := min(1, len(cands)-1); off < len(cands); off++ {
			if i := (ci + off) % len(cands); cands[i].breaker.Allow() {
				next = i
				break
			}
		}
		if next == -1 {
			r.met.unroutable.Inc()
			return false
		}
		r.met.retries.Inc()
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
		if next != ci {
			r.met.failovers.Inc()
		}
		ci = next
		// Slow path, and the retry batch's slices are reused.
		g.n, g.ops, g.res = cands[ci], append(g.ops[:0], op), append(g.res[:0], false)
		r.send(g)
		r.recv(g)
		if g.answered == 1 {
			return g.res[0]
		}
	}
	return false
}

// ServeBatch implements server.BatchBackend: the burst of requests a
// front connection had buffered is forwarded as one batch per node.
// Each op goes to its key's owner — the first replica whose breaker
// admits traffic — and the batches are written, flushed once each, and
// read back in order, so the backend round trip is paid once per node
// per burst and every node sees its requests in the order the client
// sent them. Ops whose round trip failed re-enter doOp one by one.
// Every request ravenrouter serves crosses this hop;
// TestServingPathAllocFree holds it to 0 allocs/op.
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
		if !b.route(i, op) {
			r.met.unroutable.Inc()
		}
	}
	r.requests.Add(gets)
	r.reqBytes.Add(getBytes)
	r.sets.Add(int64(len(ops)) - gets)
	r.roundTrips(b)
	for j := range b.batches {
		g := &b.batches[j]
		for k, i := range g.at {
			if k < g.answered {
				res[i] = g.res[k]
			} else {
				res[i] = r.doOp(b, g.ops[k], b.cands[i*b.fan:(i+1)*b.fan], g.n)
			}
		}
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
	t := time.NewTicker(r.cfg.ProbeInterval)
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
// recovered node is re-admitted. Exported so tests and drills can
// drive probing deterministically with the background prober disabled.
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
