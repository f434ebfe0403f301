// Command ravenrouter fronts a fleet of ravencached nodes with the
// fault-tolerant cluster tier (internal/cluster): a deterministic
// consistent-hash ring routes every key to its owner, per-node circuit
// breakers and PING health probes eject dead nodes and re-admit
// recovered ones, and failed requests fail over to ring replicas in
// bounded retry rounds.
//
// The router speaks the same wire protocol as ravencached itself —
// pipelined binary GET/SET, and the text control verbs — because it
// embeds the same hardened server front-end; clients cannot tell a
// router from a node. What a client pipelines is forwarded pipelined: the requests
// already buffered on a connection are served as one burst, each node's
// share of it written in one flush and its replies read back in order,
// so the backend round trip is paid once per node per burst. A round
// trip that fails counts once against the node's breaker; the requests
// it left unanswered each count as a failure of that node and go to
// their next replica in a retry round of the same burst, again one
// batch per node. STATS aggregates the router's own view; METRICS
// additionally serves the router.* health/failover metrics and per-node
// latency histograms.
//
// Usage:
//
//	ravenrouter -addr :7071 -cluster 127.0.0.1:7072,127.0.0.1:7073
//
// Exit status is non-zero when the listener cannot be bound or the
// accept loop dies permanently.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"raven/internal/cluster"
	"raven/internal/server"
)

func main() {
	os.Exit(run())
}

// run carries the real main body so deferred cleanup (final stats,
// drain, router shutdown) executes before the process exits.
func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:7071", "listen address")
		nodeList = flag.String("cluster", "", "comma-separated ravencached node addresses (required)")
		seed     = flag.Int64("seed", 42, "ring placement seed; all routers of a fleet must agree")

		maxConns = flag.Int("maxconns", 0, "max concurrent client connections (0 = unlimited)")
		drain    = flag.Duration("drain", 0, "graceful drain bound on shutdown (0 = 5s default)")
	)
	flag.Parse()

	var nodes []string
	for _, a := range strings.Split(*nodeList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			nodes = append(nodes, a)
		}
	}
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "ravenrouter: -cluster requires at least one node address")
		return 1
	}

	router, err := cluster.New(cluster.Config{Nodes: nodes, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ravenrouter:", err)
		return 1
	}
	srv, err := server.New(server.Config{
		Addr:         *addr,
		Backend:      router,
		Registry:     router.Metrics(), // router.* rides the same METRICS
		MaxConns:     *maxConns,
		DrainTimeout: *drain,
	})
	if err != nil {
		_ = router.Close()
		fmt.Fprintln(os.Stderr, "ravenrouter:", err)
		return 1
	}
	fmt.Printf("ravenrouter: fleet=%d ring=%016x listening on %s\n",
		len(nodes), router.Fingerprint(), srv.Addr())

	// Drain the front-end first (stats then reflect every served
	// request), then the router, then report.
	defer func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ravenrouter: close:", err)
		}
		if err := router.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ravenrouter: router close:", err)
		}
		st := srv.Stats()
		fmt.Printf("\nravenrouter: %d requests, OHR %.4f, BHR %.4f\n", st.Requests, st.OHR(), st.BHR())
		states := router.NodeStates()
		names := make([]string, 0, len(states))
		for n := range states {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("ravenrouter: node %s final state: %s\n", n, states[n])
		}
		fmt.Printf("ravenrouter: final metrics: %s\n", srv.Metrics().Line())
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Printf("\nravenrouter: received %v, draining\n", got)
		return 0
	case <-srv.Fatal():
		fmt.Fprintln(os.Stderr, "ravenrouter: fatal:", srv.FatalErr())
		return 1
	}
}
