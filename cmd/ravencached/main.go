// Command ravencached runs the TCP cache server (the paper's §5.4
// prototype) with any eviction policy from this repository.
//
// Usage:
//
//	ravencached -addr :7070 -capacity 1073741824 -policy raven
//
// One request loop serves every connection through one of two codecs,
// picked by the connection's first byte. GET and SET are fixed binary
// frames (first byte 0x80; 26-byte little-endian requests, 10-byte
// status replies; internal/server/binary.go has the layout), pipelined
// on a zero-allocation path. Text lines are the control channel.
//
//	verb     binary                  text
//	GET      0x01 → HIT|MISS         —
//	SET      0x02 → STORED|NOSTORED  —
//	PING     0x05 → PONG             PING → PONG (not counted as a request)
//	QUIT     0x03                    QUIT
//	STATS    —                       STATS → STATS <requests> <hits> <reqBytes> <hitBytes>
//	METRICS  —                       METRICS → METRICS <n> + n "name value" lines
//
// Anything else is answered "ERR ..." on a text connection, which goes
// on, and with an error status (0x80/0x81) on a binary one, which is
// then closed.
//
// -shards splits the cache into independent shards (memcached-style,
// rounded up to a power of two), each with its own policy instance and
// lock, so concurrent clients on different shards never contend.
//
// A learning policy trains off the request path: one background
// trainer, on a thread in the kernel's idle scheduling class, fits
// every shard's windows while requests are served with the model in
// place, and each shard's next request installs its new model.
//
// The server shuts down cleanly on SIGINT or SIGTERM: it stops
// accepting, drains in-flight connections up to -drain, force-closes
// stragglers, and prints final statistics and the final metrics line
// either way; METRICS serves the same snapshot live. It does not wait
// for a fit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/server"
)

func main() {
	os.Exit(run())
}

// run carries the real main body so deferred cleanup (final stats,
// server drain) executes before the process exits; os.Exit in main
// would skip it.
func run() int {
	served := policy.Served()
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		capacity = flag.Int64("capacity", 64<<20, "cache capacity in bytes")
		polName  = flag.String("policy", "raven", "eviction policy name")
		shards   = flag.Int("shards", 1, "cache shards, one policy instance each (rounded up to a power of two)")
		window   = flag.Int64("window", 100000, "learning-policy training window in trace ticks")
		node     = flag.Int("node", 0, "this node's index in a ravenrouter fleet (derives per-node seeds and checkpoint dirs)")
		nodes    = flag.Int("nodes", 1, "fleet size; 1 means standalone (no per-node derivation)")
		seed     = flag.Int64("seed", served.Seed, "random seed")

		admitMode = flag.String("admit", "", "admission front-end: off|doorkeeper|learned (learned needs a reuse-predicting policy: raven/raven-ohr)")

		// Raven's serving configuration is policy.Served(). -admit stays
		// off: learned admission needs raven, and any policy is served.
		scoreCache  = flag.Bool("score-cache", served.ScoreCache, "raven: cached-score eviction fast path")
		inference32 = flag.Bool("inference32", served.Inference32, "raven: float32 inference kernels for eviction decisions (training stays float64)")
		budget      = flag.Duration("decision-budget", served.DecisionBudget, "raven: per-eviction-decision deadline; overruns fall back to LRU and count toward degradation (0 = off, negative refused)")

		ckptDir   = flag.String("checkpoint", "", "learning-policy checkpoint directory: resume from the newest valid generation, save after trainings")
		ckptEvery = flag.Int("checkpoint-every", served.CheckpointEvery, "save a checkpoint generation every N completed trainings")

		maxConns = flag.Int("maxconns", 0, "max concurrent connections (0 = unlimited); excess dials get ERR busy")
		drain    = flag.Duration("drain", 0, "graceful drain bound on shutdown (0 = 5s default)")
	)
	flag.Parse()

	ravenObs := &obs.RavenObs{}
	factory, err := policy.Lookup(*polName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ravencached:", err)
		return 1
	}
	if *node < 0 || *nodes < 1 || *node >= *nodes {
		fmt.Fprintf(os.Stderr, "ravencached: -node %d out of range for -nodes %d\n", *node, *nodes)
		return 1
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "ravencached: -shards %d must be at least 1\n", *shards)
		return 1
	}
	if *window <= 0 {
		fmt.Fprintf(os.Stderr, "ravencached: -window %d must be positive\n", *window)
		return 1
	}
	if *ckptEvery < 1 {
		fmt.Fprintf(os.Stderr, "ravencached: -checkpoint-every %d must be at least 1\n", *ckptEvery)
		return 1
	}
	if *budget < 0 {
		fmt.Fprintf(os.Stderr, "ravencached: -decision-budget %v must not be negative\n", *budget)
		return 1
	}
	// One trainer fits every shard's windows off the request path. Exit
	// does not wait for a fit: Close only stops one at its next epoch
	// boundary.
	trainer := nn.NewTrainer()
	defer trainer.Close()
	perShard := factory.PerShard(policy.Options{
		Capacity:        *capacity,
		TrainWindow:     *window,
		Seed:            *seed,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Obs:             ravenObs,
		ScoreCache:      *scoreCache,
		Inference32:     *inference32,
		DecisionBudget:  *budget,
		Admission:       policy.AdmissionOptions{Mode: *admitMode},
		Raven:           &core.Config{Trainer: trainer},
	}.PerNode(*node, *nodes), *shards)
	// Capture each shard's policy as it is built so checkpoint-resume
	// status can be reported per shard below.
	var built []cache.Policy
	newPolicy := func(shard int, capacity int64) (cache.Policy, error) {
		p, err := perShard(shard, capacity)
		if err != nil {
			return nil, err
		}
		built = append(built, p)
		return p, nil
	}
	srv, err := server.New(server.Config{
		Addr:         *addr,
		Capacity:     *capacity,
		Shards:       *shards,
		NewPolicy:    newPolicy,
		MaxConns:     *maxConns,
		DrainTimeout: *drain,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ravencached:", err)
		return 1
	}
	if *ckptDir != "" {
		for shard, p := range built {
			r, ok := cache.Unwrap(p).(*core.Raven)
			if !ok {
				continue
			}
			if r.CkptErr != nil {
				fmt.Fprintf(os.Stderr, "ravencached: shard%d checkpoint: %v\n", shard, r.CkptErr)
			}
			if r.CkptResume.Path != "" {
				fmt.Printf("ravencached: shard%d resumed checkpoint generation %d (%s), %d corrupt skipped\n",
					shard, r.CkptResume.Seq, r.CkptResume.Path, r.CkptResume.CorruptSkipped)
			} else {
				fmt.Printf("ravencached: shard%d has no valid checkpoint (%d corrupt skipped), starting cold\n",
					shard, r.CkptResume.CorruptSkipped)
			}
		}
	}
	// Model-lifecycle metrics join the same registry METRICS serves,
	// so operators see rollbacks/health/checkpoint counters live.
	ravenObs.Register(srv.Metrics(), "raven")
	fmt.Printf("ravencached: policy=%s capacity=%d shards=%d listening on %s\n",
		*polName, *capacity, srv.Shards(), srv.Addr())

	// Final stats print and drain run deferred so they happen on
	// either signal (and in this order: stats reflect the fully
	// drained server because Close runs first).
	defer func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ravencached: close:", err)
		}
		st := srv.Stats()
		fmt.Printf("\nravencached: %d requests, OHR %.4f, BHR %.4f\n", st.Requests, st.OHR(), st.BHR())
		// Final health-machine state per shard (the server is drained,
		// so the policies are quiescent): operators and the chaos
		// harness read this to tell a clean fallback from a crash.
		for shard, p := range built {
			if r, ok := cache.Unwrap(p).(*core.Raven); ok {
				fmt.Printf("ravencached: shard%d final health: %s\n", shard, r.Health())
			}
		}
		fmt.Printf("ravencached: final metrics: %s\n", srv.Metrics().Line())
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Printf("\nravencached: received %v, draining\n", got)
		return 0
	case <-srv.Fatal():
		// The accept loop died permanently (listener revoked, fd
		// exhaustion that never cleared): the server can't serve, so
		// exit non-zero and let the supervisor restart it.
		fmt.Fprintln(os.Stderr, "ravencached: fatal:", srv.FatalErr())
		return 1
	}
}
