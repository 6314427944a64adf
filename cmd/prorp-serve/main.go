// Command prorp-serve runs the ProRP online serving runtime: a sharded
// fleet engine behind an HTTP API, driven by wall-clock time, with a
// background proactive-resume ticker (Algorithm 5), per-database wake-up
// delivery, periodic snapshot persistence, restore-on-boot, and graceful
// shutdown (drain, final snapshot) on SIGINT/SIGTERM.
//
// Usage:
//
//	prorp-serve -addr :8080 -snapshot /var/lib/prorp/fleet.snap
//	prorp-serve -shards 64 -config opts.json -snapshot-every 30s
//	prorp-serve -debug-addr 127.0.0.1:6060   # pprof on a separate listener
//	prorp-serve -role replica -primary-addr http://primary:8080 \
//	    -wal-dir /var/lib/prorp/wal -snapshot /var/lib/prorp/fleet.snap
//	prorp-serve -group g1 -groups g2=http://g2:8080,g3=http://g3:8080 \
//	    -shardmap /var/lib/prorp/shard.map   # partitioned control plane
//	prorp-serve -version
//
// See internal/server for the endpoint list, and "Running as a service" in
// README.md for curl examples.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"prorp"
	"prorp/internal/faults"
	"prorp/internal/repl"
	"prorp/internal/server"
	"prorp/internal/wal"
)

// version renders the build's identity from the Go module metadata stamped
// by `go build` — no ldflags plumbing to get stale.
func version() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "prorp-serve (no build info)"
	}
	v := info.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	out := fmt.Sprintf("prorp-serve %s", v)
	if rev != "" {
		out += fmt.Sprintf(" (%s%s)", rev, dirty)
	}
	return out + " " + info.GoVersion
}

// parseGroupPeers parses the -groups flag: comma-separated name=base-url
// pairs naming every OTHER group's primary.
func parseGroupPeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad pair %q, want name=base-url", pair)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("duplicate group %q", name)
		}
		peers[name] = strings.TrimRight(addr, "/")
	}
	return peers, nil
}

// newHTTPServer is the public listener. Slow-client hardening: a peer that
// stalls mid-headers, mid-body, or between keep-alive requests cannot pin a
// connection forever. Every request's context descends from ctx — the
// process's shutdown signal — because /v1/repl/stream holds a caught-up
// follower's poll open: cancelling ctx lets those go at once, so Shutdown
// drains the requests that are doing work instead of waiting out a park.
func newHTTPServer(ctx context.Context, addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		debugAddr     = flag.String("debug-addr", "", "debug listen address for net/http/pprof (empty = pprof disabled); keep it off any public interface")
		showVersion   = flag.Bool("version", false, "print version and exit")
		shards        = flag.Int("shards", 0, "fleet stripe count (0 = default)")
		snapshotPath  = flag.String("snapshot", "", "snapshot file: restored on boot, rewritten periodically and on shutdown")
		snapshotEvery = flag.Duration("snapshot-every", time.Minute, "periodic snapshot cadence")
		configPath    = flag.String("config", "", "JSON options file (prorp.Options; default Table 1 knobs)")
		retryAttempts = flag.Int("retry-attempts", 5, "attempts per transient I/O failure (snapshots, prewarm/wake hooks)")
		retryBase     = flag.Duration("retry-base", 50*time.Millisecond, "initial retry backoff delay")
		retryMax      = flag.Duration("retry-max", 2*time.Second, "retry backoff delay cap")
		degradedAfter = flag.Int("degraded-after", 3, "consecutive snapshot failures before degraded mode (serve traffic, skip snapshots, report unhealthy)")
		walDir        = flag.String("wal-dir", "", "event journal directory: every mutation is journaled there before it is acknowledged, replayed on boot, compacted on snapshot (empty = journal disabled)")
		walFsync      = flag.String("wal-fsync", "always", "journal durability policy: always (fsync per record), batch (group commit), off")
		walSegBytes   = flag.Int64("wal-segment-bytes", 0, "journal segment rotation size in bytes (0 = default 4 MiB)")
		walBatchEvery = flag.Duration("wal-batch-interval", 0, "group-commit window for -wal-fsync=batch (0 = default 2ms)")
		role          = flag.String("role", "primary", "replication role: primary (accept writes, serve the stream) or replica (pull the primary's journal, serve reads, reject writes; requires -primary-addr and -wal-dir)")
		primaryAddr   = flag.String("primary-addr", "", "primary's base URL for -role=replica (e.g. http://primary:8080)")
		replPoll      = flag.Duration("repl-poll-interval", 0, "follower back-off after a failed or damaged stream poll (0 = default 250ms); answered polls are followed by the next at once, and the primary holds a caught-up poll open until a record is ready")
		replBatch     = flag.Int("repl-batch-bytes", 0, "max replication stream batch size in bytes (0 = default 256 KiB)")
		leaseTTL      = flag.Duration("lease-ttl", 0, "primary-lease TTL: the primary heartbeats a lease of this length to its followers, and a follower whose lease lapses stands for election (0 = self-healing failover disabled; requires -repl-peers and -repl-self)")
		electionTO    = flag.Duration("election-timeout", 0, "base election timeout: a candidate waits this plus a random fraction of it after lease lapse before standing (0 = -lease-ttl)")
		quorumAcks    = flag.Int("quorum-acks", 0, "replica acks each write waits for after the local fsync before acknowledging; timeout refuses with 503, never downgrades silently (0 = async replication; requires -wal-dir)")
		quorumTO      = flag.Duration("quorum-timeout", 0, "deadline for one quorum-acked replication wait (0 = default 5s)")
		replPeers     = flag.String("repl-peers", "", "comma-separated replication-cluster peers as name=base-url pairs (e.g. b=http://b:8080,c=http://c:8080); the electorate for -lease-ttl")
		replSelf      = flag.String("repl-self", "", "this node's own base URL, announced to peers on election win")
		replNode      = flag.String("repl-node", "", "this node's name in stream polls and votes (default: -repl-self)")
		group         = flag.String("group", "", "this node's shard group name; non-empty joins a horizontally partitioned control plane (empty = single-group layout)")
		groups        = flag.String("groups", "", "comma-separated peer groups as name=base-url pairs (e.g. g2=http://g2:8080,g3=http://g3:8080); requires -group")
		shardmapPath  = flag.String("shardmap", "", "shard-map frame file: restored on boot, rewritten on every map adoption (empty = in-memory map)")
		scatterTO     = flag.Duration("scatter-timeout", 0, "scatter-gather fan-out deadline for fleet-wide surfaces (0 = default 2s)")
		routeRedirect = flag.Bool("route-redirect", false, "answer remote-owned requests with 307 + owner address instead of proxying server-side")
		admitDelay    = flag.Duration("admission-target-delay", 0, "CoDel-style sojourn target for priority admission: when the oldest in-flight request exceeds it, low-priority classes shed with 429 (0 = default 200ms)")
		admitInflight = flag.Int("admission-max-inflight", 0, "in-flight request depth backstop: classes below decision shed at this depth, decisions at twice it (0 = default 1024, negative = admission disabled)")
		admitClasses  = flag.Int("admission-shed-classes", 0, "how many priority classes, lowest first, sojourn shedding may refuse: 1 = background only, 2 = +writes, 3 = +reads; decisions never shed (0 = default 3)")
		brkThreshold  = flag.Int("breaker-threshold", 0, "consecutive transport failures that open a per-peer circuit breaker on every inter-node path (0 = default 5, negative = breakers disabled)")
		brkCooldown   = flag.Duration("breaker-cooldown", 0, "how long an open breaker refuses calls before admitting a single recovery probe (0 = default 2s)")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(version())
		return
	}

	// Log the full effective configuration — every flag with its resolved
	// value, defaults included — so any incident's logs begin with the exact
	// knob settings the process ran under.
	log.Printf("prorp-serve: %s", version())
	flag.VisitAll(func(f *flag.Flag) {
		log.Printf("prorp-serve: config -%s=%s", f.Name, f.Value.String())
	})

	fsyncPolicy, err := wal.ParsePolicy(*walFsync)
	if err != nil {
		log.Fatalf("prorp-serve: -wal-fsync: %v", err)
	}
	nodeRole, err := repl.ParseRole(*role)
	if err != nil {
		log.Fatalf("prorp-serve: -role: %v", err)
	}

	opts := prorp.DefaultOptions()
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatalf("prorp-serve: %v", err)
		}
		if err := json.Unmarshal(data, &opts); err != nil {
			log.Fatalf("prorp-serve: parsing %s: %v", *configPath, err)
		}
	}

	backoff := faults.DefaultBackoff()
	backoff.Attempts = *retryAttempts
	backoff.Base = *retryBase
	backoff.Max = *retryMax

	peers, err := parseGroupPeers(*groups)
	if err != nil {
		log.Fatalf("prorp-serve: -groups: %v", err)
	}
	if *group == "" && (len(peers) > 0 || *shardmapPath != "") {
		log.Fatalf("prorp-serve: -groups/-shardmap require -group")
	}
	clusterPeers, err := parseGroupPeers(*replPeers)
	if err != nil {
		log.Fatalf("prorp-serve: -repl-peers: %v", err)
	}

	srv, err := server.New(server.Config{
		Options:              opts,
		Shards:               *shards,
		SnapshotPath:         *snapshotPath,
		SnapshotEvery:        *snapshotEvery,
		Backoff:              backoff,
		DegradedAfter:        *degradedAfter,
		WALDir:               *walDir,
		WALFsync:             fsyncPolicy,
		WALSegmentBytes:      *walSegBytes,
		WALBatchInterval:     *walBatchEvery,
		Role:                 nodeRole,
		PrimaryAddr:          *primaryAddr,
		ReplPollInterval:     *replPoll,
		ReplMaxBatchBytes:    *replBatch,
		LeaseTTL:             *leaseTTL,
		ElectionTimeout:      *electionTO,
		QuorumAcks:           *quorumAcks,
		QuorumTimeout:        *quorumTO,
		ReplPeers:            clusterPeers,
		SelfAddr:             *replSelf,
		NodeID:               *replNode,
		Group:                *group,
		GroupPeers:           peers,
		ShardmapPath:         *shardmapPath,
		ScatterTimeout:       *scatterTO,
		RouterRedirect:       *routeRedirect,
		AdmissionTargetDelay: *admitDelay,
		AdmissionMaxInflight: *admitInflight,
		AdmissionShedClasses: *admitClasses,
		BreakerThreshold:     *brkThreshold,
		BreakerCooldown:      *brkCooldown,
		Logf:                 log.Printf,
	})
	if err != nil {
		log.Fatalf("prorp-serve: %v", err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	httpSrv := newHTTPServer(ctx, *addr, srv)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("prorp-serve: listening on %s (%d shards, mode %s, role %s)",
		*addr, srv.Fleet().Shards(), opts.Mode, srv.Node().Role())

	// Optional pprof surface on its own listener and mux, so profiling
	// endpoints never share a port (or an accidental route) with the
	// public API. A failed debug listener is logged, not fatal.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dm, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("prorp-serve: pprof debug listener on %s", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("prorp-serve: debug listener: %v", err)
			}
		}()
	}

	select {
	case <-ctx.Done():
		log.Printf("prorp-serve: shutting down")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Printf("prorp-serve: http: %v", err)
		}
	}

	// Shutdown is strict, not best-effort: a failed HTTP drain or — far
	// worse — a failed final snapshot is logged and turned into a non-zero
	// exit, so supervisors restart the process instead of trusting a
	// silently stale snapshot.
	cancel() // whichever way we got here, let go of the parked stream polls
	exit := 0
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("prorp-serve: http shutdown: %v", err)
		exit = 1
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("prorp-serve: debug listener shutdown: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		log.Printf("prorp-serve: final snapshot not persisted: %v", err)
		exit = 1
	}
	if exit != 0 {
		os.Exit(exit)
	}
	fmt.Println("prorp-serve: clean shutdown")
}
