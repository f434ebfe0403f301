package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/server"
	"raven/internal/trace"
)

// equivalenceOps is a fixed Zipf stream over 200 keys, a quarter of it
// SETs, with explicit timestamps. Keys from 160 up are "big": they fit
// on a roomy node but never on the tight one (see TestBurstEquivalence).
func equivalenceOps() []server.Op {
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.2, 1, 199)
	ops := make([]server.Op, 4000)
	for i := range ops {
		key := trace.Key(zipf.Uint64())
		key = (key*37 + 11) % 200 // spread the popular ranks over small and big keys
		size := int64(10)
		if key >= 160 {
			size = 200_000
		}
		ops[i] = server.Op{Set: rng.Intn(4) == 0, Key: key, Size: size, Time: int64(i + 1)}
	}
	return ops
}

// TestBurstEquivalence: batching changes how requests travel, not what
// they do. The same stream replayed through Router.Get/Set and through
// ServeBatch in bursts of 1, 7 and 32 — each time against a fresh fleet
// on the same addresses, so placement is identical — returns the same
// per-op results, the same router STATS and counters, and leaves the
// same cache.requests/sets/hits on every node.
//
// Nothing is ever evicted, yet both outcomes of every verb occur: node 0
// is too tight for the big keys, so the ones it owns are never stored
// and miss on it forever.
func TestBurstEquivalence(t *testing.T) {
	ops := equivalenceOps()
	type outcome struct {
		res                 []bool
		router              cache.Stats
		unroutable, retries int64
		nodes               [][3]int64 // requests, sets, hits
	}
	var addrs []string
	run := func(burstLen int) outcome {
		a, srvs := startBackends(t, 3, 1<<30, func(i int, c *server.Config) {
			if i == 0 {
				c.Capacity = 100_000
			}
			if addrs != nil {
				c.Addr = addrs[i]
			}
		})
		addrs = a
		r := newTestRouter(t, addrs)
		out := outcome{res: make([]bool, len(ops))}
		for lo := 0; lo < len(ops); lo += max(burstLen, 1) {
			switch op := ops[lo]; {
			case burstLen > 0:
				hi := min(lo+burstLen, len(ops))
				r.ServeBatch(ops[lo:hi], out.res[lo:hi])
			case op.Set:
				out.res[lo] = r.Set(op.Key, op.Size, op.Time)
			default:
				out.res[lo] = r.Get(op.Key, op.Size, op.Time)
			}
		}
		out.router = r.Stats()
		out.unroutable = r.Metrics().Counter("router.unroutable").Load()
		out.retries = r.Metrics().Counter("router.retries").Load()
		// Free the addresses for the next fleet.
		_ = r.Close()
		for _, s := range srvs {
			st := s.Stats()
			out.nodes = append(out.nodes, [3]int64{st.Requests, st.Sets, st.Hits})
			if st.Evictions != 0 {
				t.Fatalf("a node evicted %d objects; the stream must fit", st.Evictions)
			}
			_ = s.Close()
		}
		return out
	}

	want := run(0)
	if want.unroutable != 0 || want.retries != 0 {
		t.Fatalf("reference run: %d unroutable, %d retries; want no faults", want.unroutable, want.retries)
	}
	for _, n := range []int{1, 7, 32} {
		if got := run(n); !reflect.DeepEqual(got, want) {
			for i := range ops {
				if got.res[i] != want.res[i] {
					t.Errorf("bursts of %d: op %d (%+v) returned %v, op by op %v", n, i, ops[i], got.res[i], want.res[i])
					break
				}
			}
			got.res, want.res = nil, nil
			t.Errorf("bursts of %d:\n got  %+v\n want %+v", n, got, want)
		}
	}
}

// TestBurstOneRoundTripPerNode: a burst is plan, one round trip per
// node, then retry rounds for what failed — and nothing else, however
// popular its keys. Every key of the burst has been requested 16 times
// (SETs that store, GETs that hit, and one key too big to ever be stored
// whose GETs always miss); the burst then costs exactly one round trip
// on each node that owns one of its keys.
func TestBurstOneRoundTripPerNode(t *testing.T) {
	addrs, _ := startBackends(t, 3, 1<<20)
	trips := map[string]int{} // ServeBatch runs on this goroutine, and nothing probes
	r, err := New(Config{
		Nodes: addrs, Seed: 42, probe: -1,
		faults: &faults{BeforeOp: func(node string) error { trips[node]++; return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	shadow := shadowRing(t, 42, addrs)

	ops, want := make([]server.Op, 32), map[string]int{}
	for i := range ops {
		ops[i] = server.Op{Set: i%4 == 3, Key: trace.Key(i % 16), Size: 64, Time: -1}
		if ops[i].Key == 5 {
			ops[i].Size = 2 << 20
		}
		want[shadow.Members()[shadow.Lookup(ops[i].Key)]] = 1
	}
	res := make([]bool, len(ops))
	for i := 0; i < 16; i++ {
		r.ServeBatch(ops, res)
	}
	clear(trips)
	r.ServeBatch(ops, res)
	if !reflect.DeepEqual(trips, want) {
		t.Errorf("round trips per node %v, want one on each owner: %v", trips, want)
	}
	if res[0] != true || res[3] != true || res[5] != false {
		t.Errorf("warm GET %v, SET %v, oversized GET %v; want true, true, false", res[0], res[3], res[5])
	}
}

// burstFleet is a three-node fleet behind a router and a front server,
// for faults mid-burst. The nodes read two frames at a time (the
// ReadFrames fault), so they flush replies every two requests: a batch
// that dies part-way has an answered prefix and an unanswered rest, as
// on a real network.
type burstFleet struct {
	addrs []string
	srvs  []*server.Server
	ring  *Ring // the test's own view of who owns what
	r     *Router
	cl    *server.Client
	next  trace.Key
}

func newBurstFleet(t *testing.T, nodeFaults func(i int) *server.Faults, mod func(*Config)) *burstFleet {
	t.Helper()
	f := &burstFleet{}
	f.addrs, f.srvs = startBackends(t, 3, 1<<20, func(i int, c *server.Config) {
		c.DrainTimeout = time.Millisecond
		c.Faults = &server.Faults{}
		if nodeFaults != nil {
			if nf := nodeFaults(i); nf != nil {
				c.Faults = nf
			}
		}
		c.Faults.ReadFrames = 2
	})
	f.ring = shadowRing(t, 42, f.addrs)
	f.r = newTestRouter(t, f.addrs, func(c *Config) {
		c.timeout = 100 * time.Millisecond
		if mod != nil {
			mod(c)
		}
	})
	front, err := server.New(server.Config{Backend: f.r, Registry: f.r.Metrics(), DrainTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = front.Close() })
	f.cl, err = server.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	f.cl.Timeout = 10 * time.Second
	t.Cleanup(func() { _ = f.cl.Close() })
	return f
}

// burst sends one 32-request burst of fresh keys (every fourth a SET)
// through the front: request i is owned by node (1, 0, 2)[i%3], so node
// 1 — the victim of every fault below — owns 11 of them. It requires
// every request answered, in order: each carries its own size, which
// the reply must echo, and a reply of the wrong kind for its request
// fails the client's matcher. It returns the burst it sent.
func (f *burstFleet) burst(t *testing.T) []server.Op {
	t.Helper()
	ops := make([]server.Op, 32)
	for i := range ops {
		for f.ring.Members()[f.ring.Lookup(f.next)] != f.addrs[[3]int{1, 0, 2}[i%3]] {
			f.next++
		}
		ops[i] = server.Op{Set: i%4 == 3, Key: f.next, Size: int64(100 + i), Time: int64(f.next + 1)}
		f.next++
	}
	res := make([]bool, len(ops))
	if err := f.cl.Send(ops); err != nil {
		t.Fatalf("burst before key %d: send: %v", f.next, err)
	}
	if n, err := f.cl.Recv(ops, res); err != nil || n != len(ops) {
		t.Fatalf("burst before key %d: %d of %d requests answered: %v", f.next, n, len(ops), err)
	}
	return ops
}

// checkAccounts closes the fleet — so every node has served whatever it
// will ever serve of the frames it was sent — and checks, per node, the
// inequality the benchmark's correctness gate relies on: the router
// counted an op only if the node served it, and counted a failure for
// every request the node may have served without being heard.
func (f *burstFleet) checkAccounts(t *testing.T, sent int) {
	t.Helper()
	if got := f.r.Stats().Requests + f.r.Stats().Sets; got != int64(sent) {
		t.Errorf("router STATS count %d requests+sets, client sent %d", got, sent)
	}
	_ = f.r.Close()
	for i, s := range f.srvs {
		_ = s.Close()
		st := s.Stats()
		served := st.Requests + st.Sets
		ops := f.r.Metrics().Counter(fmt.Sprintf("router.node%d.ops", i)).Load()
		failures := f.r.Metrics().Counter(fmt.Sprintf("router.node%d.failures", i)).Load()
		if served < ops || served > ops+failures {
			t.Errorf("node %d: served %d requests+sets, router counted %d ops and %d failures", i, served, ops, failures)
		}
	}
}

// TestBurstFaultBeforeOp: a node whose every round trip fails before
// the wire. Each burst costs its breaker one failure however many of
// the burst's requests were bound for it, so with failLimit 3 the
// ladder reads healthy twice, degraded three times, then fallback; the
// requests themselves fail over in a retry round and are all answered.
func TestBurstFaultBeforeOp(t *testing.T) {
	var victim atomic.Value
	victim.Store("")
	f := newBurstFleet(t, nil, func(c *Config) {
		c.faults = &faults{BeforeOp: func(node string) error {
			if node == victim.Load().(string) {
				return errors.New("injected node fault")
			}
			return nil
		}}
	})
	victim.Store(f.addrs[1])
	ladder := []State{Healthy, Healthy, Degraded, Degraded, Degraded, Fallback, Fallback}
	for i, want := range ladder {
		f.burst(t)
		if got := f.r.NodeStates()[f.addrs[1]]; got != want {
			t.Fatalf("after %d failed round trips the victim is %v, want %v", i+1, got, want)
		}
	}
	if got := f.r.Metrics().Gauge("router.node1.state").Load(); got != int64(Fallback) {
		t.Errorf("router.node1.state reads %d, want %d", got, Fallback)
	}
	if n := f.r.Metrics().Counter("router.node1.failures").Load(); n != 6*11 {
		t.Errorf("router.node1.failures = %d, want one per request of the six failed batches (66)", n)
	}
	if n := f.r.Metrics().Counter("router.failovers").Load(); n == 0 {
		t.Error("no request failed over")
	}
	f.checkAccounts(t, len(ladder)*32)
}

// TestBurstRetryIsOneRound: what a failed round trip left unanswered
// is retried as a round of the burst, not op by op. Node 1 fails every
// round trip before the wire, so its 11 ops of a 32-op burst go to
// their ring successors in one more round trip per successor node. A
// node's router.node<i>.latency_ns count, one sample per round trip,
// rises by one for its own share of the burst and by one more if it is
// a successor, whatever number of ops it took over.
func TestBurstRetryIsOneRound(t *testing.T) {
	var victim atomic.Value
	victim.Store("")
	f := newBurstFleet(t, nil, func(c *Config) {
		c.faults = &faults{BeforeOp: func(node string) error {
			if node == victim.Load().(string) {
				return errors.New("injected node fault")
			}
			return nil
		}}
	})
	victim.Store(f.addrs[1])
	trips := func() (n [3]int64) {
		for i := range n {
			n[i] = f.r.Metrics().Histogram(fmt.Sprintf("router.node%d.latency_ns", i)).Snapshot().Count
		}
		return n
	}
	before := trips()
	ops := f.burst(t)
	after := trips()

	want := [3]int64{1, 0, 1} // node 1 fails before the wire: nothing to time
	var buf [replicas]int
	for _, op := range ops {
		if cands := f.ring.LookupN(op.Key, replicas, buf[:0]); f.ring.Members()[cands[0]] == f.addrs[1] {
			for i, a := range f.addrs {
				if a == f.ring.Members()[cands[1]] {
					want[i] = 2
				}
			}
		}
	}
	for i := range want {
		if got := after[i] - before[i]; got != want[i] {
			t.Errorf("node %d: %d round trips for one burst, want %d", i, got, want[i])
		}
	}
	for _, name := range []string{"router.retries", "router.failovers"} {
		if n := f.r.Metrics().Counter(name).Load(); n != 11 {
			t.Errorf("%s = %d, want one per op of node 1's failed batch (11)", name, n)
		}
	}
	f.checkAccounts(t, len(ops))
}

// TestBurstFaultNodeClosed: a node is shut down while a batch is in
// flight on it — some replies flushed, one held, the rest unserved. The
// router counts the answered prefix as ops and the rest as failures,
// closes the connection, and the unanswered requests fail over.
func TestBurstFaultNodeClosed(t *testing.T) {
	var replies atomic.Int64
	reached, release := make(chan struct{}), make(chan struct{})
	f := newBurstFleet(t, func(i int) *server.Faults {
		if i != 1 {
			return nil
		}
		return &server.Faults{PreReply: func() {
			if replies.Add(1) == 5 {
				close(reached)
				<-release
			}
		}}
	}, nil)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		<-reached
		_ = f.srvs[1].Close() // force-closes the connection after the 1ms drain, then waits for the held handler
	}()
	f.burst(t)
	close(release)
	<-closed
	if n := f.r.Metrics().Counter("router.node1.ops").Load(); n != 4 {
		t.Errorf("router.node1.ops = %d, want the 4 requests answered before the node died", n)
	}
	if n := f.r.Metrics().Counter("router.node1.failures").Load(); n == 0 {
		t.Error("the requests in flight on the dead node were not counted as failures")
	}
	f.burst(t) // the fleet keeps serving around the dead node
	f.checkAccounts(t, 2*32)
}

// TestBurstFaultNodeStalls: a node that stops answering mid-batch (as
// one does for seconds during an inline fit). The router gives the
// round trip its request timeout, counts one breaker failure for it — the
// node stays routable — and retries what went unanswered elsewhere.
func TestBurstFaultNodeStalls(t *testing.T) {
	var replies atomic.Int64
	release := make(chan struct{})
	f := newBurstFleet(t, func(i int) *server.Faults {
		if i != 1 {
			return nil
		}
		return &server.Faults{PreReply: func() {
			if replies.Add(1) == 5 {
				<-release
			}
		}}
	}, nil)
	f.burst(t)
	if got := f.r.NodeStates()[f.addrs[1]]; got != Healthy {
		t.Errorf("one timed-out round trip left the node %v, want healthy (failLimit %d)", got, failLimit)
	}
	if n := f.r.Metrics().Counter("router.node1.ops").Load(); n != 4 {
		t.Errorf("router.node1.ops = %d, want the 4 requests answered before the stall", n)
	}
	close(release) // the node now serves the frames it had already been sent, unheard
	f.burst(t)
	f.checkAccounts(t, 2*32)
}

// TestServingPathAllocFree extends the server's zero-allocation budget
// across the router hop: a front server forwarding 32-frame bursts to a
// two-node fleet allocates nothing, on the front, in the router or on the nodes
// (AllocsPerRun counts process-wide mallocs). Every deadline is armed:
// the read and write deadlines of the front and the nodes, and the
// round-trip deadline on the router's pooled connections.
func TestServingPathAllocFree(t *testing.T) {
	addrs, _ := startBackends(t, 2, 1<<20)
	r := newTestRouter(t, addrs)
	front, err := server.New(server.Config{Backend: r, Registry: r.Metrics(), DrainTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = front.Close() })
	cl, err := server.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	// 8 keys: key 3 is SET four times a burst; key 7 is too big for any
	// node, so its four GETs miss every time.
	ops := make([]server.Op, 32)
	for i := range ops {
		ops[i] = server.Op{Set: i%8 == 3, Key: trace.Key(i % 8), Size: 64, Time: -1}
		if ops[i].Key == 7 {
			ops[i].Size = 2 << 20
		}
	}
	res := make([]bool, len(ops))
	burst := func() {
		if err := cl.Send(ops); err != nil {
			t.Fatal(err)
		}
		if n, err := cl.Recv(ops, res); err != nil || n != len(ops) {
			t.Fatalf("%d of %d answered: %v", n, len(ops), err)
		}
	}
	for i := 0; i < 32; i++ {
		burst() // warm up: pools, burst scratch, client buffers
	}
	if avg := testing.AllocsPerRun(200, burst); avg != 0 {
		t.Errorf("a routed 32-frame burst allocates %.2f times; want 0", avg)
	}
}
