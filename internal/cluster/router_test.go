package cluster

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/server"
	"raven/internal/trace"
)

// startBackends launches n in-process LRU cache servers on ephemeral
// ports and returns their addresses and handles. mods adjust node i's
// configuration (its capacity included) before the policy is built.
func startBackends(t testing.TB, n int, capacity int64, mods ...func(i int, c *server.Config)) ([]string, []*server.Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*server.Server, n)
	for i := range addrs {
		cfg := server.Config{Addr: "127.0.0.1:0", Capacity: capacity, DrainTimeout: time.Second}
		for _, m := range mods {
			m(i, &cfg)
		}
		cfg.NewPolicy = cache.SingleFactory(policy.MustNew("lru", policy.Options{Capacity: cfg.Capacity}))
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[i], srvs[i] = srv.Addr(), srv
	}
	return addrs, srvs
}

// newTestRouter builds a router with fast, deterministic settings: no
// background prober (tests call ProbePass) and a short half-open
// cool-down.
func newTestRouter(t testing.TB, addrs []string, mods ...func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Nodes:    addrs,
		Seed:     42,
		timeout:  2 * time.Second,
		probe:    -1,
		halfOpen: 5 * time.Millisecond,
	}
	for _, m := range mods {
		m(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// shadowRing rebuilds the router's ring independently — the test's own
// view of who owns what, and a cross-build determinism check.
func shadowRing(t *testing.T, seed int64, addrs []string) *Ring {
	t.Helper()
	r := NewRing(seed, defaultVNodes)
	for _, a := range addrs {
		if err := r.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestRouterRoutesDeterministically: every key lands on the node the
// independently built shadow ring predicts, node request counts sum to
// the router's total, and the fingerprints agree.
func TestRouterRoutesDeterministically(t *testing.T) {
	addrs, srvs := startBackends(t, 3, 1<<20)
	r := newTestRouter(t, addrs)
	shadow := shadowRing(t, 42, addrs)
	if r.Fingerprint() != shadow.Fingerprint() {
		t.Fatalf("router ring fingerprint %x != shadow %x", r.Fingerprint(), shadow.Fingerprint())
	}

	byAddr := map[string]*server.Server{}
	for i, a := range addrs {
		byAddr[a] = srvs[i]
	}
	const keys = 300
	for k := trace.Key(0); k < keys; k++ {
		r.Get(k, 10, int64(k+1)) // cold: miss + admit on the owner
	}
	for k := trace.Key(0); k < keys; k++ {
		if !r.Get(k, 10, int64(keys+k+1)) {
			t.Fatalf("key %d: warm get missed", k)
		}
	}

	var total int64
	for i, s := range srvs {
		st := s.Stats()
		total += st.Requests
		if st.Requests == 0 {
			t.Errorf("node %d served nothing — ring is not spreading", i)
		}
	}
	if rs := r.Stats(); rs.Requests != 2*keys || total != rs.Requests {
		t.Errorf("router saw %d requests, nodes served %d, want %d", rs.Requests, total, 2*keys)
	}
	// Spot-check ownership: each key's traffic went to the shadow
	// ring's owner (2 requests per key, all on one node, none elsewhere
	// — implied by totals matching and every warm get hitting).
	if hits := r.Stats().Hits; hits != keys {
		t.Errorf("router counted %d hits, want %d", hits, keys)
	}
}

// TestRouterFailoverAndRecovery: a node whose ops all fail is retried,
// failed over, ejected after the breaker streak, and re-admitted by a
// half-open probe once it heals.
func TestRouterFailoverAndRecovery(t *testing.T) {
	addrs, _ := startBackends(t, 3, 1<<20)
	var victim atomic.Value // string; "" = no fault
	victim.Store("")
	r := newTestRouter(t, addrs, func(c *Config) {
		c.faults = &faults{BeforeOp: func(node string) error {
			if node == victim.Load().(string) {
				return errors.New("injected node fault")
			}
			return nil
		}}
	})
	shadow := shadowRing(t, 42, addrs)

	// Keys owned by addrs-th member "v": pick the owner of key 1.
	v := shadow.Members()[shadow.Lookup(1)]
	var vKeys []trace.Key
	for k := trace.Key(0); len(vKeys) < 20; k++ {
		if shadow.Members()[shadow.Lookup(k)] == v {
			vKeys = append(vKeys, k)
		}
	}
	victim.Store(v)

	// Every request still completes via failover to the next replica.
	ts := int64(1)
	for _, k := range vKeys {
		r.Get(k, 10, ts)
		ts++
	}
	for _, k := range vKeys {
		if !r.Get(k, 10, ts) {
			t.Fatalf("key %d: warm get missed despite failover", k)
		}
		ts++
	}
	if n := r.Metrics().Counter("router.failovers").Load(); n == 0 {
		t.Error("no failovers recorded")
	}
	if n := r.Metrics().Counter("router.retries").Load(); n == 0 {
		t.Error("no retries recorded")
	}
	if st := r.NodeStates()[v]; st != Fallback {
		t.Fatalf("victim state %v after sustained failures, want fallback", st)
	}
	// Ejected means skipped: further traffic takes no retry detour.
	before := r.Metrics().Counter("router.retries").Load()
	for _, k := range vKeys {
		r.Get(k, 10, ts)
		ts++
	}
	if after := r.Metrics().Counter("router.retries").Load(); after != before {
		t.Errorf("ejected node still costing retries (%d -> %d)", before, after)
	}

	// Heal: half-open probe re-admits the node.
	victim.Store("")
	time.Sleep(10 * time.Millisecond) // past the half-open cool-down
	r.ProbePass()
	if st := r.NodeStates()[v]; st != Healthy {
		t.Fatalf("victim state %v after successful probe, want healthy", st)
	}
	if n := r.Metrics().Counter("router.probes").Load(); n == 0 {
		t.Error("no probes recorded")
	}
}

// TestRouterProbePassEjectsSilentDeath: probes alone (no traffic) climb
// the breaker ladder and eject a dead node.
func TestRouterProbePassEjectsSilentDeath(t *testing.T) {
	addrs, srvs := startBackends(t, 2, 1<<20)
	r := newTestRouter(t, addrs, func(c *Config) {
		c.timeout = 200 * time.Millisecond
	})
	_ = srvs[0].Close() // silent death: probes now fail to connect
	dead := addrs[0]
	for i := 0; i < 6; i++ {
		r.ProbePass()
	}
	if st := r.NodeStates()[dead]; st != Fallback {
		t.Fatalf("dead node state %v after probe failures, want fallback", st)
	}
	if st := r.NodeStates()[addrs[1]]; st != Healthy {
		t.Fatalf("live node state %v, want healthy", st)
	}
}

// TestNewRejectsDuplicateNode: the fleet is a set — a repeated address
// would leave a ring member without a node behind it.
func TestNewRejectsDuplicateNode(t *testing.T) {
	if _, err := New(Config{Nodes: []string{"a:1", "b:1", "a:1"}, probe: -1}); err == nil {
		t.Fatal("New accepted a duplicate node")
	}
}

// TestRouterAllNodesDown: with every dial failing the router degrades
// to misses — it never errors toward the protocol layer.
func TestRouterAllNodesDown(t *testing.T) {
	addrs, _ := startBackends(t, 2, 1<<20)
	r := newTestRouter(t, addrs, func(c *Config) {
		c.faults = &faults{Dial: func(string) error { return errors.New("injected dial failure") }}
	})
	for k := trace.Key(0); k < 20; k++ {
		if r.Get(k, 10, int64(k+1)) {
			t.Fatalf("key %d: hit with all nodes down", k)
		}
	}
	if st := r.Stats(); st.Requests != 20 || st.Hits != 0 {
		t.Errorf("stats %+v, want 20 requests / 0 hits", st)
	}
	states := r.NodeStates()
	for a, st := range states {
		if st != Fallback {
			t.Errorf("node %s state %v, want fallback", a, st)
		}
	}
	if n := r.Metrics().Counter("router.unroutable").Load(); n == 0 {
		t.Error("unroutable never counted with a fully dead fleet")
	}
}

// TestRouterBehindServer: the router serves as a server.Backend — the
// full protocol front-end (binary pipelining, text METRICS) works
// against a fleet, and the router.* metrics ride the same registry.
func TestRouterBehindServer(t *testing.T) {
	addrs, _ := startBackends(t, 3, 1<<20)
	r := newTestRouter(t, addrs)
	front, err := server.New(server.Config{
		Addr:         "127.0.0.1:0",
		Backend:      r,
		Registry:     r.Metrics(),
		DrainTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = front.Close() })

	cl, err := server.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	cl.Timeout = 5 * time.Second

	ops := make([]server.Op, 0, 200)
	for k := trace.Key(0); k < 100; k++ {
		ops = append(ops, server.Op{Key: k, Size: 10, Time: -1})
	}
	for k := trace.Key(0); k < 100; k++ {
		ops = append(ops, server.Op{Key: k, Size: 10, Time: -1})
	}
	st, err := cl.Pipeline(ops, 32)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 200 || st.Hits != 100 {
		t.Errorf("pipeline %d requests / %d hits, want 200/100", st.Requests, st.Hits)
	}

	m, err := server.FetchMetrics(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["router.failovers"]; !ok {
		t.Error("router metrics not served over the front-end's METRICS")
	}
	if m["server.requests_binary"] != 200 {
		t.Errorf("front-end counted %d binary requests, want 200", m["server.requests_binary"])
	}
	if rs := r.Stats(); rs.Requests != 200 {
		t.Errorf("router served %d requests, want 200", rs.Requests)
	}
}

// TestRouterGoroutineLeak: Close tears down the prober and pools; the
// goroutine count returns to its pre-router baseline.
func TestRouterGoroutineLeak(t *testing.T) {
	addrs, _ := startBackends(t, 3, 1<<20)
	base := runtime.NumGoroutine()
	r, err := New(Config{
		Nodes: addrs,
		Seed:  1,
		probe: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := trace.Key(0); k < 50; k++ {
		r.Get(k, 10, int64(k+1))
	}
	time.Sleep(10 * time.Millisecond) // a few probe passes
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The backend servers' per-connection goroutines unwind as the
		// drained pool connections close; poll until quiescent.
		if n := runtime.NumGoroutine(); n <= base+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d at baseline, %d after Close", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
