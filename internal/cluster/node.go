package cluster

import (
	"fmt"

	"raven/internal/obs"
	"raven/internal/server"
)

// poolSize bounds each node's idle-connection pool. Serving goroutines
// beyond the pool dial fresh connections and the surplus is closed on
// return, so the pool caps idle sockets, not concurrency.
const poolSize = 4

// nodeMetrics are one node's obs handles, registered as
// router.node<i>.* in the router's registry (and therefore visible over
// the router's METRICS verb).
type nodeMetrics struct {
	state     *obs.Gauge     // Breaker state (0 healthy, 1 degraded, 2 fallback)
	ops       *obs.Counter   // cache ops this node answered
	failures  *obs.Counter   // ops of a failed round trip it did not answer, and failed probes
	latencyNs *obs.Histogram // round-trip latency: one sample per batch
}

// node is one backend: its address, circuit breaker, bounded client
// pool, and metrics. The pool hands out exclusive *server.Client
// connections (clients are not goroutine-safe); a connection that saw
// an error is closed rather than pooled, so protocol framing can never
// leak across requests.
type node struct {
	name    string // dial address; also the ring member name
	breaker *Breaker
	pool    chan *server.Client
	dial    func() (*server.Client, error)
	met     nodeMetrics
}

// newNode builds a node and registers its metrics under
// router.node<idx>.*.
func newNode(name string, idx int, br *Breaker, reg *obs.Registry,
	dial func() (*server.Client, error)) *node {
	prefix := fmt.Sprintf("router.node%d", idx)
	n := &node{
		name:    name,
		breaker: br,
		pool:    make(chan *server.Client, poolSize),
		dial:    dial,
		met: nodeMetrics{
			state:     reg.Gauge(prefix + ".state"),
			ops:       reg.Counter(prefix + ".ops"),
			failures:  reg.Counter(prefix + ".failures"),
			latencyNs: reg.Histogram(prefix + ".latency_ns"),
		},
	}
	n.met.state.Set(int64(Healthy))
	return n
}

// get checks a connection out of the pool, dialing when empty.
func (n *node) get() (*server.Client, error) {
	select {
	case cl := <-n.pool:
		return cl, nil
	default:
		return n.dial()
	}
}

// put returns a connection after use. Only connections that completed
// their request cleanly are pooled; anything else is closed (its
// framing state is unknown).
func (n *node) put(cl *server.Client, ok bool) {
	if !ok {
		_ = cl.Close()
		return
	}
	select {
	case n.pool <- cl:
	default:
		_ = cl.Close()
	}
}

// drainPool closes every pooled connection (used on router shutdown).
func (n *node) drainPool() {
	for {
		select {
		case cl := <-n.pool:
			_ = cl.Close()
		default:
			return
		}
	}
}
