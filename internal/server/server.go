// Package server is the HTTP front end of the online serving runtime: a
// stdlib net/http service over a prorp.ShardedFleet, driven by wall-clock
// time. It owns the pieces the library leaves to the host — the
// Algorithm 5 proactive-resume ticker, delivery of the per-database
// wake-up timers the policy requests, periodic snapshot persistence, and
// graceful shutdown with a final snapshot plus restore-on-boot.
//
// Endpoints:
//
//	POST   /v1/db               create a database        {"id":1,"created_at":...?}
//	GET    /v1/db/{id}          state + current prediction (?windows=1 for the full scan)
//	DELETE /v1/db/{id}          drop a database
//	POST   /v1/db/{id}/login    customer activity started
//	POST   /v1/db/{id}/logout   customer activity stopped
//	GET    /v1/kpi              fleet KPI report
//	GET    /v1/traces           slowest recent request traces (span trees)
//	GET    /metrics             Prometheus text exposition (superset of /v1/kpi)
//	GET    /healthz             liveness + fleet gauges
//	POST   /v1/ops/resume       run one proactive-resume iteration now
//	POST   /v1/ops/snapshot     persist a snapshot now
//	GET    /v1/repl/stream      WAL frames after a cursor (replication data plane)
//	GET    /v1/repl/snapshot    snapshot frame of the fleet for follower resync
//	POST   /v1/repl/promote     make this node the primary of a new epoch
//	POST   /v1/repl/fence       force-feed an epoch, fencing an old primary
//	GET    /v1/shard/map        current slot map (?format=frame for the checksummed frame)
//	POST   /v1/shard/migrate    move one slot's databases to another group  {"slot":5,"to":"g2"}
//	POST   /v1/shard/reconcile  adopt the newest peer map, sweep disowned databases
//	GET    /v1/shard/due        phase-one resume scan for a coordinating peer
//	POST   /v1/shard/prewarm    phase-two prewarm of this group's slice of the capped set
//	POST   /v1/shard/adopt      slot-transfer frame ingest (migration data plane)
//
// A node runs as primary (default) or replica (Config.Role); replicas
// serve every read endpoint and reject mutations with 503 + Retry-After.
// See internal/repl and DESIGN.md §9.
//
// With Config.Group set the node joins a horizontally partitioned control
// plane: database ids hash into shardmap.NumSlots slots owned by named
// groups, per-database requests route through the versioned map (served
// locally, proxied, or 307-redirected), and fleet-wide surfaces
// scatter-gather across groups. See internal/shardmap and DESIGN.md §10.
//
// All timestamps are RFC 3339; event times are assigned from the server
// clock, exactly as the paper's gateway observes logins.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prorp"
	"prorp/internal/admission"
	"prorp/internal/breaker"
	"prorp/internal/faults"
	"prorp/internal/obs"
	"prorp/internal/repl"
	"prorp/internal/wal"
)

// Config assembles a Server.
type Config struct {
	// Options are the fleet's policy knobs; the zero value means
	// prorp.DefaultOptions.
	Options prorp.Options
	// Shards is the fleet stripe count (0 = default).
	Shards int
	// SnapshotPath, when non-empty, enables persistence: the server
	// restores from this file on boot (if it exists), rewrites it every
	// SnapshotEvery, and writes it a final time on Close. Writes are
	// atomic and checksummed; the previous snapshot is kept at
	// SnapshotPath+".bak" and restored from when the primary is corrupt.
	SnapshotPath string
	// SnapshotEvery is the periodic-snapshot cadence (default 1 minute).
	SnapshotEvery time.Duration
	// Now overrides the clock, for tests (default time.Now).
	Now func() time.Time
	// Sleep overrides backoff sleeps, for tests (default time.Sleep).
	Sleep func(time.Duration)
	// FS is the filesystem seam for snapshot persistence (default the real
	// filesystem); chaos tests inject a faults.FaultFS.
	FS faults.FS
	// Backoff is the retry schedule for transient snapshot, prewarm, and
	// wake-delivery failures (zero value = faults.DefaultBackoff).
	Backoff faults.Backoff
	// WALDir, when non-empty, enables the crash-durable event journal:
	// every create/delete/login/logout is recorded there before it is
	// acknowledged, replayed on top of the restored snapshot at boot, and
	// compacted each time a snapshot lands. See internal/wal.
	WALDir string
	// WALFsync is the journal's durability policy (default wal.FsyncAlways;
	// wal.FsyncBatch group-commits appends arriving within
	// WALBatchInterval into one fsync).
	WALFsync wal.FsyncPolicy
	// WALSegmentBytes is the journal's segment rotation size (0 = default).
	WALSegmentBytes int64
	// WALBatchInterval is the group-commit window under wal.FsyncBatch
	// (0 = default).
	WALBatchInterval time.Duration
	// DegradedAfter is the number of consecutive periodic-snapshot
	// failures (each already retried per Backoff) after which the server
	// enters degraded mode: traffic is still served, snapshot retry storms
	// stop (one single-attempt probe per cadence), and /healthz reports
	// 503 until a probe succeeds. Default 3.
	DegradedAfter int
	// OnPrewarm, when non-nil, performs the infrastructure side of a
	// proactive resume (allocating compute ahead of the predicted login).
	// Transient failures are retried per Backoff; a database whose
	// prewarm still fails is surfaced in the KPI resilience counters
	// rather than silently dropped.
	OnPrewarm func(id int) error
	// OnWake, like OnPrewarm, performs the infrastructure side of
	// delivering a wake-up timer. Failures are retried; a persistently
	// failing wake is rescheduled a backoff-cap later, never dropped.
	OnWake func(id int) error
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Role selects the node's replication role (default RolePrimary — the
	// zero value keeps the pre-replication single-node behavior). A replica
	// pulls the primary's journal, serves reads, and rejects writes with
	// 503 + Retry-After. See internal/repl and DESIGN.md §9.
	Role repl.Role
	// PrimaryAddr is the primary's base URL ("http://host:port"); required
	// when Role is RoleReplica.
	PrimaryAddr string
	// ReplDoer performs the replication HTTP round trips (default an
	// http.Client with a 30s timeout); chaos tests inject a faults.FaultDoer
	// over an in-process transport.
	ReplDoer faults.Doer
	// ReplPollInterval is the follower's back-off after a failed or damaged
	// stream poll (0 = default, 250ms). It is not a cadence: an answered poll
	// is followed by the next at once, and the primary holds a caught-up
	// poll open until a record is ready.
	ReplPollInterval time.Duration
	// ReplMaxBatchBytes caps one replication stream batch (0 = default,
	// 256 KiB).
	ReplMaxBatchBytes int
	// LeaseTTL, when positive, enables the self-healing failover layer: the
	// primary grants followers a lease of this duration over the stream
	// headers (and over periodic announces), and a follower whose lease
	// lapses stands for election instead of waiting for an operator.
	// Requires ReplPeers and SelfAddr. See DESIGN.md §11.
	LeaseTTL time.Duration
	// ElectionTimeout is the base randomized election timeout: a candidate
	// waits ElectionTimeout + rand(0, ElectionTimeout) after its lease
	// lapses before standing (0 = LeaseTTL).
	ElectionTimeout time.Duration
	// ElectionSeed seeds the election jitter (0 = time-seeded); chaos tests
	// pin it for reproducibility.
	ElectionSeed int64
	// QuorumAcks, when positive, makes every write wait — after the local
	// journal fsync — until this many distinct follower cursors cover the
	// record before acking (quorum-acked write mode). A write that cannot
	// reach quorum within QuorumTimeout is refused with 503, never silently
	// downgraded to async replication. Requires WALDir.
	QuorumAcks int
	// QuorumTimeout bounds one quorum-acked replication wait (0 = 5s).
	// Wall-clock by design: quorum is a liveness SLA on real replicas.
	QuorumTimeout time.Duration
	// ReplPeers maps every OTHER replication-cluster member's name to its
	// base URL — the electorate for leases/elections and the announce
	// fan-out target.
	ReplPeers map[string]string
	// NodeID names this node in stream polls (the quorum-coverage key) and
	// vote requests (default: SelfAddr, then "node"). Quorum-acked mode
	// refuses to boot on the "node" fallback: replicas sharing the default
	// id collapse into one entry in the primary's coverage map, and a K≥2
	// quorum then times out every write even with enough live replicas.
	NodeID string
	// SelfAddr is this node's own base URL, announced to peers when it wins
	// an election so they repoint their followers at it.
	SelfAddr string
	// Group, when non-empty, makes this node part of a horizontally
	// partitioned control plane: database ids hash into slots, slots are
	// owned by named groups (see internal/shardmap), and every per-database
	// request is routed through the map. Empty keeps the single-group
	// behavior exactly as before.
	Group string
	// GroupPeers maps every OTHER group's name to its primary's base URL
	// ("http://host:port"). Fleet-wide surfaces scatter-gather across them;
	// remote-owned requests are proxied (or redirected) there.
	GroupPeers map[string]string
	// ShardmapPath, when non-empty, persists the slot map as a shard-map frame:
	// restored on boot, rewritten on every adoption.
	ShardmapPath string
	// RouterDoer performs routing, scatter-gather, and migration round
	// trips (default an http.Client with a 10s timeout).
	RouterDoer faults.Doer
	// RouterRedirect makes remote-owned requests answer 307 with the
	// owner's address instead of proxying server-side.
	RouterRedirect bool
	// ScatterTimeout bounds one scatter-gather fan-out (default 2s);
	// groups that miss it are reported as partial results, not waited for.
	ScatterTimeout time.Duration

	// AdmissionTargetDelay is the priority admission controller's
	// CoDel-style sojourn target (0 = 200ms): once the oldest in-flight
	// request has been running longer than this, low-priority classes are
	// shed with 429 — background first, then history writes, then reads,
	// never login/decision traffic. Wall-clock by design, like the other
	// liveness deadlines: sojourn measures real elapsed time.
	AdmissionTargetDelay time.Duration
	// AdmissionMaxInflight is the in-flight depth backstop (0 = 1024):
	// everything below decision class sheds at this depth, decisions
	// themselves at twice it. Negative disables the admission gate
	// entirely (the overhead benchmark's unadmitted baseline).
	AdmissionMaxInflight int
	// AdmissionShedClasses bounds how many priority classes, counted from
	// the bottom, sojourn shedding may refuse (0 = 3: background, writes,
	// and reads shed; decisions never do).
	AdmissionShedClasses int
	// BreakerThreshold is the consecutive-transport-failure count that
	// opens a per-host circuit breaker on every inter-node HTTP path —
	// router proxy, scatter fan-out, replication polls, election
	// solicitation, migration ships, announces (0 = 5; negative disables
	// the breakers entirely).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses calls before
	// admitting a single recovery probe (0 = 2s). Wall-clock by design:
	// recovery is a liveness deadline on real peers.
	BreakerCooldown time.Duration
}

// opsCounters are the serving layer's resilience counters, surfaced
// through prorp.FleetKPI on GET /v1/kpi.
type opsCounters struct {
	snapshotRetries   atomic.Uint64
	snapshotFailures  atomic.Uint64
	snapshotFallbacks atomic.Uint64
	prewarmRetries    atomic.Uint64
	prewarmFailures   atomic.Uint64
	wakeRetries       atomic.Uint64
	wakeFailures      atomic.Uint64
	// WAL counters: append failures accumulate over the server's life;
	// the replay family is set once by the boot replay.
	walAppendFailures atomic.Uint64
	walReplayed       atomic.Uint64
	walReplaySkipped  atomic.Uint64
	walTornSegments   atomic.Uint64
	walTruncatedBytes atomic.Uint64
}

// Server is the HTTP front end. It implements http.Handler.
type Server struct {
	cfg     Config
	fleetP  atomic.Pointer[prorp.ShardedFleet]
	now     func() time.Time
	clock   faults.Clock
	logf    func(string, ...any)
	mux     *http.ServeMux
	wakes   *wakeScheduler
	wakeMu  sync.Mutex     // serializes wake delivery (see deliverDueWakes)
	stamps  eventStamps    // create/login/logout seconds, per database
	store   *snapshotStore // nil when persistence is disabled
	wal     *wal.Journal   // nil when the event journal is disabled
	started time.Time
	ops     opsCounters

	// Replication: node is the role/epoch state machine (always non-nil),
	// followerP the stream loop — atomic because self-healing failover
	// creates and drops followers at runtime (a fenced ex-primary
	// auto-demotes into one, an election winner sheds its own). replMu
	// guards the repl-state file and the cached cursor; the stream-side
	// counters live in repl.
	node       *repl.Node
	followerP  atomic.Pointer[repl.Follower]
	replMu     sync.Mutex
	replCursor wal.Cursor
	// replLineage is the reign epoch of the journal replCursor indexes —
	// the vote-comparison guard (cursors from different reigns are
	// incomparable). Set at promotion (own reign) or learned from the
	// stream's X-Repl-Reign header; guarded by replMu.
	replLineage uint64
	// replFile is the repl-state file open for progress writes (nil until a
	// rewrite has put one in place), replProgressAt the offset of its
	// progress line, replHead what its line one says; guarded by replMu.
	replFile       faults.File
	replProgressAt int64
	replHead       replHead
	repl           replCounters

	// parkTick is the pending stream-park deadline, nil when no poll has
	// asked for one since the last fired (see parkDeadline).
	parkMu   sync.Mutex
	parkTick chan struct{}

	// peerAddrs maps follower node ids to the last remote host each polled
	// from, to log when two hosts share an id (see notePeerID).
	peerAddrMu sync.Mutex
	peerAddrs  map[string]string

	// elect owns the election state (epoch, fence, votes, the primary
	// followed) and is the only writer of node. Self-healing failover
	// (nil unless Config.LeaseTTL is set): lease tracks primary liveness,
	// coverage tracks follower cursors for quorum-acked writes. followMu
	// serializes follower create/repoint/stop against promotion.
	elect    *repl.Driver
	lease    *repl.Lease
	coverage *wal.Coverage
	followMu sync.Mutex
	closing  bool // under followMu: no new followers past Close/Kill

	// Partitioning: router is the shard-map routing state (nil when
	// Config.Group is empty — the single-group layout), migrateMu
	// serializes slot migrations on both the source and destination side.
	router    *router
	migrateMu sync.Mutex

	// Overload robustness: admission is the priority-classed gate in front
	// of every instrumented route, replBreakers the per-host circuit
	// breakers on the replication control paths (follower poll, snapshot
	// resync, election solicitation, announce), retryBudget the shared
	// token bucket that caps internally generated retries (proxy re-route
	// after 421, migration re-ship) so retry amplification cannot pile on
	// during an outage. replBreakers and retryBudget are nil when breakers
	// are disabled (BreakerThreshold < 0).
	admission    *admission.Controller
	replBreakers *breaker.Group
	retryBudget  *admission.RetryBudget

	// Observability: the metric registry behind GET /metrics and the span
	// tracer behind GET /v1/traces. Always on — the registry is atomic
	// counters, the tracer a bounded buffer.
	reg      *obs.Registry
	tracer   *obs.Tracer
	predHist *obs.Histogram // Algorithm 4 latency behind GET /v1/db/{id}
	// quorumHist is the replication wait of one quorum-acked write; nil
	// (no-op) outside quorum-acked mode.
	quorumHist *obs.Histogram
	// batchHist is the size, in records, of each streamed batch a replica
	// applied.
	batchHist *obs.Histogram

	// walGate orders mutations against snapshot boundaries: handlers hold
	// it shared around the journal-append + fleet-apply pair, and the
	// snapshot writer holds it exclusive around rotate + serialize — so
	// every event is either wholly inside a snapshot or wholly at/after
	// its journal boundary, never half of each.
	walGate sync.RWMutex

	// snapMu serializes snapshot writes (ticker vs. ops endpoint vs.
	// Close) and guards the degraded-mode bookkeeping.
	snapMu        sync.Mutex
	snapFailures  int    // consecutive failed snapshot writes
	lastSnapError string // last snapshot failure, for /healthz
	degraded      atomic.Bool

	stop      chan struct{}
	bg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New builds the server, restoring the fleet from Config.SnapshotPath if a
// snapshot exists there (falling back to the last-known-good .bak when the
// primary is corrupt), and starts the background control loops. Callers
// must Close it.
func New(cfg Config) (*Server, error) {
	if cfg.Options == (prorp.Options{}) {
		cfg.Options = prorp.DefaultOptions()
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.FS == nil {
		cfg.FS = faults.OS
	}
	if cfg.Backoff == (faults.Backoff{}) {
		cfg.Backoff = faults.DefaultBackoff()
	}
	if cfg.DegradedAfter <= 0 {
		cfg.DegradedAfter = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Role == repl.RoleReplica {
		if cfg.PrimaryAddr == "" {
			return nil, errors.New("server: replica role requires PrimaryAddr")
		}
		if cfg.WALDir == "" {
			// The replica's whole crash story is journalize-before-apply;
			// without a journal a restart would silently lose applied state.
			return nil, errors.New("server: replica role requires WALDir")
		}
	}
	if cfg.LeaseTTL > 0 {
		if len(cfg.ReplPeers) == 0 {
			return nil, errors.New("server: LeaseTTL requires ReplPeers (the electorate)")
		}
		if cfg.SelfAddr == "" {
			return nil, errors.New("server: LeaseTTL requires SelfAddr (announced on election win)")
		}
		if cfg.ElectionTimeout <= 0 {
			cfg.ElectionTimeout = cfg.LeaseTTL
		}
	}
	if cfg.QuorumAcks > 0 {
		if cfg.WALDir == "" {
			return nil, errors.New("server: QuorumAcks requires WALDir (quorum covers journal cursors)")
		}
		if cfg.NodeID == "" && cfg.SelfAddr == "" {
			// The coverage map keys on node id: replicas falling back to the
			// shared "node" default collapse into ONE peer, and a K≥2 quorum
			// then 503s every write no matter how many replicas are caught up.
			return nil, errors.New("server: QuorumAcks requires a distinct node identity: set NodeID (or SelfAddr)")
		}
		if cfg.QuorumTimeout <= 0 {
			cfg.QuorumTimeout = 5 * time.Second
		}
	}
	if cfg.NodeID == "" {
		cfg.NodeID = cfg.SelfAddr
		if cfg.NodeID == "" {
			cfg.NodeID = "node"
		}
	}
	clock := funcClock{now: cfg.Now, sleep: cfg.Sleep}
	reg := obs.NewRegistry()

	var store *snapshotStore
	if cfg.SnapshotPath != "" {
		store = &snapshotStore{
			path:    cfg.SnapshotPath,
			fs:      cfg.FS,
			clock:   clock,
			backoff: cfg.Backoff,
			logf:    cfg.Logf,
			saveHist: reg.Histogram("prorp_snapshot_save_duration_seconds",
				"Snapshot persistence latency (disk half, retries included).", obs.LatencyBuckets),
			loadHist: reg.Histogram("prorp_snapshot_load_duration_seconds",
				"Snapshot restore latency at boot.", obs.LatencyBuckets),
		}
	}

	var (
		fleet    *prorp.ShardedFleet
		pending  []prorp.PendingWake
		fellBack bool
		walSince uint64
	)
	if store != nil {
		var err error
		fellBack, walSince, err = store.Load(func(r io.Reader) error {
			f, p, rerr := prorp.RestoreShardedFleet(cfg.Options, cfg.Shards, r)
			if rerr != nil {
				return rerr
			}
			fleet, pending = f, p
			return nil
		})
		switch {
		case err == nil:
			src := cfg.SnapshotPath
			if fellBack {
				src = store.bakPath()
			}
			cfg.Logf("restored %d databases (%d pending wakes) from %s",
				fleet.Size(), len(pending), src)
		case errors.Is(err, fs.ErrNotExist):
			// First boot: no snapshot yet. The journal, if any, replays
			// from the beginning and rebuilds the fleet on its own.
		default:
			return nil, fmt.Errorf("server: restoring snapshot %s: %w", cfg.SnapshotPath, err)
		}
	}
	if fleet == nil {
		var err error
		fleet, err = prorp.NewShardedFleetShards(cfg.Options, cfg.Shards)
		if err != nil {
			return nil, err
		}
		walSince = 0 // fresh fleet: every journaled event is news
	}

	var journal *wal.Journal
	if cfg.WALDir != "" {
		var err error
		journal, err = wal.Open(wal.Config{
			Dir:           cfg.WALDir,
			SegmentBytes:  cfg.WALSegmentBytes,
			Fsync:         cfg.WALFsync,
			BatchInterval: cfg.WALBatchInterval,
			FS:            cfg.FS,
			Clock:         clock,
			Backoff:       cfg.Backoff,
			Logf:          cfg.Logf,
			Obs:           reg,
		})
		if err != nil {
			return nil, fmt.Errorf("server: opening wal: %w", err)
		}
	}

	s := &Server{
		cfg:     cfg,
		now:     cfg.Now,
		clock:   clock,
		logf:    cfg.Logf,
		wakes:   newWakeScheduler(),
		store:   store,
		wal:     journal,
		started: cfg.Now(),
		stamps:  eventStamps{last: map[int]int64{}},
		stop:    make(chan struct{}),
		reg:     reg,
		tracer:  obs.NewTracer(0, 0),
	}
	s.fleetP.Store(fleet)

	// Overload layer. The admission controller and the breakers run on the
	// wall clock even when cfg.Now is a test clock: sojourn and cooldown
	// are liveness SLAs over real elapsed time (exactly like QuorumTimeout
	// and the scatter deadline), and a frozen test clock must not leave a
	// tripped breaker open forever.
	if cfg.AdmissionMaxInflight >= 0 {
		s.admission = admission.NewController(admission.Config{
			TargetDelay:      cfg.AdmissionTargetDelay,
			MaxInflight:      cfg.AdmissionMaxInflight,
			SheddableClasses: cfg.AdmissionShedClasses,
		})
	}
	if cfg.BreakerThreshold >= 0 {
		s.replBreakers = breaker.NewGroup(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)
		s.retryBudget = admission.NewRetryBudget(0, 0)
	}

	// Restore the replication node state (epoch, fencing, stream cursor,
	// lease) from the repl-state file next to the journal; a demoted
	// primary must come back fenced or a restart would quietly un-demote
	// it, and a reboot inside an unexpired lease must respect it rather
	// than instantly campaign against a primary that was alive moments ago.
	head, cursor, leaseMs, lineage, err := loadReplState(cfg.FS, replStatePath(cfg.WALDir))
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		return nil, fmt.Errorf("server: reading repl state: %w", err)
	}
	fenced := head.fenced
	s.node = repl.RestoreNode(cfg.Role, head.epoch, fenced)
	s.replCursor = cursor
	s.replLineage = lineage
	if lineage == 0 && cfg.Role == repl.RolePrimary && !fenced {
		// A primary with no recorded lineage (a fresh one): its journal is
		// its own reign. A fenced ex-primary gets no such default — its
		// epoch has moved past its reign and guessing wrong would let its
		// old cursor compare against the new reign's.
		s.replLineage = s.node.Epoch()
	}
	if cfg.LeaseTTL > 0 {
		s.lease = repl.NewLease(clock, cfg.LeaseTTL)
		if leaseMs > 0 {
			s.lease.RestoreUntil(s.node.Epoch(), time.UnixMilli(leaseMs))
		}
	}
	s.replHead = replHead{epoch: s.node.Epoch(), fenced: s.node.Fenced(), vote: head.vote}
	var peers map[string]string
	if cfg.LeaseTTL > 0 {
		peers = cfg.ReplPeers
	}
	s.elect = repl.NewDriver(repl.DriverConfig{
		ID:            cfg.NodeID,
		Addr:          cfg.SelfAddr,
		Peers:         peers,
		Node:          s.node,
		Vote:          head.vote,
		Leader:        cfg.PrimaryAddr,
		Lease:         s.lease,
		Clock:         clock,
		Doer:          s.replDoer(),
		Timeout:       cfg.ElectionTimeout,
		Seed:          cfg.ElectionSeed,
		Persist:       s.persistElection,
		Position:      s.votePosition,
		StopFollowing: s.stopFollowing,
		Follow:        s.follow,
		Logf:          cfg.Logf,
	})
	if cfg.QuorumAcks > 0 {
		s.coverage = wal.NewCoverage()
	}
	if fenced && cfg.Role == repl.RolePrimary {
		cfg.Logf("booting fenced at epoch %d: a newer primary exists, writes stay rejected", s.node.Epoch())
	}
	if fellBack {
		s.ops.snapshotFallbacks.Add(1)
	}
	for _, w := range pending {
		s.wakes.schedule(w.ID, w.WakeAt)
	}
	if journal != nil {
		// Replay the journal on top of the restored snapshot. Torn tails
		// are truncated by the journal; only disk-level read errors refuse
		// the boot.
		stats, err := journal.Replay(walSince, s.applyReplay)
		if err != nil {
			journal.Close()
			return nil, fmt.Errorf("server: replaying wal: %w", err)
		}
		s.ops.walTornSegments.Add(uint64(stats.TornSegments))
		s.ops.walTruncatedBytes.Add(uint64(stats.TruncatedBytes))
		if stats.Records > 0 || stats.TornSegments > 0 {
			cfg.Logf("wal replay: %d records across %d segments since boundary %d (%d applied, %d skipped, %d torn segments, %d bytes truncated)",
				stats.Records, stats.SegmentsScanned, walSince,
				s.ops.walReplayed.Load(), s.ops.walReplaySkipped.Load(),
				stats.TornSegments, stats.TruncatedBytes)
		}
	}

	// The follower is assembled after snapshot restore and journal replay
	// so it can see whether boot produced local state at all.
	if cfg.Role == repl.RoleReplica {
		// A replica whose boot restore/replay produced state the stream
		// cursor does not cover — a rebooted ex-primary, or a seeded
		// snapshot — must not stream from genesis on top of it: events are
		// not idempotent, so the overlap would double-apply and diverge.
		// It adopts the primary's snapshot first instead.
		resyncFirst := cursor.IsZero() && fleet.Size() > 0
		if resyncFirst {
			cfg.Logf("replica boot: %d databases restored but no stream cursor; forcing snapshot resync", fleet.Size())
		}
		s.followerP.Store(s.newFollower(cfg.PrimaryAddr, cursor, resyncFirst))
	}

	if cfg.Group != "" {
		s.router, err = newRouter(cfg)
		if err != nil {
			if journal != nil {
				journal.Close()
			}
			return nil, err
		}
		// A crash between a migration's map adoption and its local deletes
		// leaves databases the (persisted) map assigns elsewhere; sweep them
		// now, before traffic, so the audit invariant — every database owned
		// by exactly one group — holds from the first request.
		if s.node.CanAcceptWrites() {
			s.sweepDisowned()
		}
	}

	s.predHist = reg.Histogram("prorp_prediction_duration_seconds",
		"Algorithm 4 latency behind GET /v1/db/{id}: one prediction, or the full per-window scan under ?windows=.", obs.LatencyBuckets)
	fleet.InstrumentObs(reg)
	s.registerServerMetrics()
	s.buildMux()

	s.bg.Add(2)
	go s.resumeLoop()
	go s.wakeLoop()
	if cfg.SnapshotPath != "" {
		s.bg.Add(1)
		go s.snapshotLoop()
	}
	if f := s.followerP.Load(); f != nil {
		f.Start()
	}
	s.elect.Start()
	return s, nil
}

// Close shuts the server down gracefully: it stops the control loops,
// persists a final snapshot (when persistence is configured), and seals
// the event journal.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.stopLoops()
		if s.cfg.SnapshotPath != "" {
			if _, err := s.writeSnapshot(); err != nil {
				s.closeErr = fmt.Errorf("server: final snapshot: %w", err)
			} else {
				s.logf("final snapshot written to %s", s.cfg.SnapshotPath)
			}
		}
		if s.wal != nil {
			if err := s.wal.Close(); err != nil && s.closeErr == nil {
				s.closeErr = fmt.Errorf("server: sealing wal: %w", err)
			}
		}
		s.replMu.Lock()
		s.closeReplStateLocked()
		s.replMu.Unlock()
	})
	return s.closeErr
}

// Kill terminates the server without the graceful-shutdown work: no final
// snapshot, no journal seal, no final fsync — the moral equivalent of
// SIGKILL landing after the last acknowledged request. The chaos suite
// uses it to model a crash; production shutdown is Close.
func (s *Server) Kill() {
	s.closeOnce.Do(func() {
		s.stopLoops()
		if s.wal != nil {
			s.wal.Kill()
		}
		s.replMu.Lock()
		s.closeReplStateLocked()
		s.replMu.Unlock()
	})
}

// stopLoops is the shared head of Close and Kill: no candidacy, epoch,
// follower or streamed record past it, and every background loop exited.
func (s *Server) stopLoops() {
	s.elect.Stop()
	s.followMu.Lock()
	s.closing = true
	if f := s.followerP.Load(); f != nil {
		f.Stop()
	}
	s.followMu.Unlock()
	close(s.stop)
	s.bg.Wait()
}

// applyRecord applies one journaled record to the fleet and reconciles
// the wake timer it implies — the shared tail of boot replay and the
// replica's streamed-apply path. Records that double-apply — the journal
// boundary is conservative, and replication is at-least-once — are
// skipped: duplicate creates, mutations of since-deleted databases, and
// re-inserted history tuples (the history store dedups on timestamp) are
// all idempotent.
func (s *Server) applyRecord(rec wal.Record) (skipped bool, err error) {
	id := int(rec.ID)
	t := time.Unix(rec.Unix, 0)
	var (
		d      prorp.Decision
		reWake bool
	)
	switch rec.Type {
	case wal.RecordCreate:
		err = s.Fleet().Create(id, t)
	case wal.RecordDelete:
		if err = s.Fleet().Delete(id); err == nil {
			s.wakes.schedule(id, time.Time{})
		}
	case wal.RecordLogin:
		d, err = s.Fleet().Login(id, t)
		reWake = err == nil
	case wal.RecordLogout:
		d, err = s.Fleet().Idle(id, t)
		reWake = err == nil
	default:
		err = fmt.Errorf("unknown record type %d", rec.Type)
	}
	switch {
	case err == nil:
		if reWake {
			// The decision's WakeAt is the complete desired timer state
			// after this event; reconcile, exactly like the live handler.
			s.wakes.schedule(id, d.WakeAt)
		}
		return false, nil
	case errors.Is(err, prorp.ErrDuplicateDatabase), errors.Is(err, prorp.ErrUnknownDatabase):
		return true, nil
	default:
		return false, err
	}
}

// applyReplay applies one journaled record during boot replay, folding
// the outcome into the replay counters.
func (s *Server) applyReplay(rec wal.Record) {
	skipped, err := s.applyRecord(rec)
	switch {
	case err != nil:
		s.ops.walReplaySkipped.Add(1)
		s.logf("wal replay: %s(%d) at %d not applied: %v", rec.Type, rec.ID, rec.Unix, err)
	case skipped:
		s.ops.walReplaySkipped.Add(1)
	default:
		s.ops.walReplayed.Add(1)
	}
}

// journalize records one mutation in the event journal, retrying transient
// failures, and returns the end-of-record cursor (the quorum-coverage
// target in quorum-acked mode; zero when journaling is disabled). A nil
// error means the record is durable per the configured fsync policy and
// the mutation may be acknowledged; a non-nil error means it must not be.
// Callers hold walGate shared across the journalize + fleet-apply pair.
func (s *Server) journalize(typ wal.RecordType, id int, t time.Time) (wal.Cursor, error) {
	if s.wal == nil {
		return wal.Cursor{}, nil
	}
	return s.journalizeBatch([]wal.Record{{Type: typ, ID: int64(id), Unix: t.Unix()}})
}

// journalizeBatch is journalize for a run of records: one journal write and
// one fsync cover all of them, and an error means none may be acknowledged.
func (s *Server) journalizeBatch(recs []wal.Record) (wal.Cursor, error) {
	var end wal.Cursor
	_, err := faults.Retry(s.clock, s.cfg.Backoff, func() error {
		cur, aerr := s.wal.AppendBatch(recs)
		if aerr == nil {
			end = cur
		}
		return aerr
	})
	if err != nil {
		s.ops.walAppendFailures.Add(1)
		s.logf("wal append of %d record(s) from %s(%d) failed: %v", len(recs), recs[0].Type, recs[0].ID, err)
		return wal.Cursor{}, fmt.Errorf("%w: %v", errJournalUnavailable, err)
	}
	return end, nil
}

// waitQuorum blocks a just-journaled write until QuorumAcks distinct
// follower cursors cover it (no-op outside quorum-acked mode). A timeout
// is a refusal, never a silent downgrade to async replication: the record
// IS durable locally and WILL replicate, but the contract the client asked
// for was not met inside the deadline, so the write is not acknowledged.
func (s *Server) waitQuorum(ctx context.Context, end wal.Cursor) error {
	if s.coverage == nil || s.cfg.QuorumAcks <= 0 || end.IsZero() {
		return nil
	}
	_, span := s.tracer.Start(ctx, "repl.quorum_wait")
	t0 := time.Now()
	err := s.coverage.WaitCovered(end, s.cfg.QuorumAcks, s.cfg.QuorumTimeout)
	s.quorumHist.ObserveSince(t0)
	span.End()
	if err != nil {
		s.repl.quorumTimeouts.Add(1)
		return fmt.Errorf("%w: %d ack(s) required, %d replica(s) known",
			errQuorumUnreached, s.cfg.QuorumAcks, s.coverage.Peers())
	}
	return nil
}

// errQuorumUnreached refuses a quorum-acked write that could not reach K
// replica acks inside QuorumTimeout. Mapped to HTTP 503 with Retry-After.
var errQuorumUnreached = errors.New("quorum not reached: write journaled but not replica-acknowledged")

// errJournalUnavailable refuses a mutation whose journal append failed:
// without a durable record the event cannot be acknowledged. Mapped to
// HTTP 503 — the condition is the server's, not the client's.
var errJournalUnavailable = errors.New("event journal unavailable")

// Fleet exposes the underlying fleet, for host instrumentation and
// handlers. The pointer is atomic because a snapshot resync on a replica
// swaps the whole runtime out from under concurrent readers.
func (s *Server) Fleet() *prorp.ShardedFleet { return s.fleetP.Load() }

// ServeHTTP delivers the wakes that are due on the injected clock, then
// routes the request: a handler never reads or mutates fleet state or KPIs
// ahead of a wake its own clock says has already happened. When nothing is
// due that is one uncontended lock and a look at the top of the wake heap.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.deliverDueWakes(s.now())
	s.mux.ServeHTTP(w, r)
}

// ----- background control loops ------------------------------------------

// resumeLoop runs the Algorithm 5 proactive-resume operation every
// ResumeOpPeriod.
func (s *Server) resumeLoop() {
	defer s.bg.Done()
	period := s.cfg.Options.ResumeOpPeriod
	if period <= 0 {
		period = time.Minute
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// A partitioned group's beat runs Algorithm 5 under the GLOBAL
			// prewarm cap: scan every group, cap the merged due set, fan the
			// survivors back out (see globalTick).
			if s.router.multiGroup() && s.node.CanAcceptWrites() {
				s.globalTick(s.now())
			} else {
				s.tick(s.now())
			}
		}
	}
}

// wakeLoop is the idle trigger for the per-database wake-ups the policy
// schedules: it delivers them when no request does. Which wakes are due is
// decided by the injected clock inside deliverDueWakes, never by which real
// timer fired — every request delivers what is due before it runs (see
// ServeHTTP), so the timer only matters to a server nobody is talking to.
func (s *Server) wakeLoop() {
	defer s.bg.Done()
	for {
		var timerC <-chan time.Time
		var timer *time.Timer
		// A non-primary never arms the timer (delivery is gated anyway, and
		// an armed past-due timer would spin); promotion kicks the signal
		// channel to re-arm.
		if at, ok := s.wakes.next(); ok && s.node.CanAcceptWrites() {
			d := at.Sub(s.now())
			if d < 0 {
				d = 0
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case <-s.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-s.wakes.signal:
			// An earlier deadline arrived; recompute the timer.
		case <-timerC:
			s.deliverDueWakes(s.now())
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

func (s *Server) snapshotLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// While degraded the periodic write degenerates into a
			// single-attempt probe (see writeSnapshotOpts).
			if _, err := s.writeSnapshotOpts(s.degraded.Load()); err != nil {
				s.logf("periodic snapshot failed: %v", err)
			}
		}
	}
}

// tick is one control-plane beat: deliver overdue wakes, then run the
// proactive-resume operation, perform the infrastructure side of each
// pre-warm (with retries), and schedule the pre-warmed databases' wakes.
// Both the ticker and POST /v1/ops/resume land here.
func (s *Server) tick(now time.Time) (wakesDelivered int, prewarmed []prorp.Prewarmed) {
	if !s.node.CanAcceptWrites() {
		// Replicas (and fenced ex-primaries) never run the resume op: the
		// prewarm transitions it causes are not journaled, so running it
		// here would silently diverge from the primary's stream.
		return 0, nil
	}
	wakesDelivered = s.deliverDueWakes(now)
	prewarmed = s.Fleet().RunResumeOp(now)
	s.executePrewarm(prewarmed)
	return wakesDelivered, prewarmed
}

func (s *Server) deliverDueWakes(now time.Time) int {
	if !s.node.CanAcceptWrites() {
		// Wake transitions are not journaled either; timers accumulate in
		// the scheduler and start firing the moment this node is promoted.
		return 0
	}
	// One delivery at a time: a request arriving while the timer goroutine is
	// mid-delivery waits for it, so it sees every due wake applied or none.
	s.wakeMu.Lock()
	defer s.wakeMu.Unlock()
	delivered := 0
	for _, e := range s.wakes.due(now) {
		if s.cfg.OnWake != nil {
			retries, err := faults.Retry(s.clock, s.cfg.Backoff, func() error {
				return s.cfg.OnWake(e.id)
			})
			s.ops.wakeRetries.Add(uint64(retries))
			if err != nil {
				// Never drop a timer: push it out one backoff cap and let
				// the delivery loop try again.
				s.ops.wakeFailures.Add(1)
				s.logf("wake of database %d failed after %d retries: %v (rescheduled)", e.id, retries, err)
				s.wakes.schedule(e.id, now.Add(s.retryDefer()))
				continue
			}
		}
		d, err := s.Fleet().Wake(e.id, now)
		if err != nil {
			continue // deleted since scheduling
		}
		delivered++
		s.wakes.schedule(e.id, d.WakeAt)
	}
	return delivered
}

// retryDefer is how far a persistently failing wake is pushed out.
func (s *Server) retryDefer() time.Duration {
	if d := s.cfg.Backoff.Max; d > 0 {
		return d
	}
	return time.Second
}

// writeSnapshot persists the fleet through the resilient store: framed
// with a checksum, written atomically (temp, fsync, rename), previous
// snapshot rotated to .bak, transient errors retried with backoff. It also
// drives the degraded-mode state machine: DegradedAfter consecutive
// failures flip the server to degraded (traffic still served, /healthz
// unhealthy); the next success flips it back.
func (s *Server) writeSnapshot() (int64, error) { return s.writeSnapshotOpts(false) }

// writeSnapshotOpts is writeSnapshot with the degraded-mode probe policy:
// probeOnly limits the write to a single attempt, so a server whose disk
// stays down doesn't mount a retry storm every cadence. Operator-forced
// snapshots (POST /v1/ops/snapshot) and the final snapshot on Close always
// use the full retry budget.
func (s *Server) writeSnapshotOpts(probeOnly bool) (int64, error) {
	if s.store == nil {
		return 0, errors.New("snapshots disabled: no snapshot path configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	backoff := s.cfg.Backoff
	if probeOnly {
		backoff.Attempts = 1
	}
	st := *s.store
	st.backoff = backoff

	// Establish the journal boundary and serialize the fleet under the
	// exclusive side of walGate: no event can land between the rotation
	// and the archive quiesce, so the snapshot provably contains every
	// event in segments below the boundary. Disk I/O (the slow, retried
	// part) happens after the gate is released.
	var (
		payload  bytes.Buffer
		boundary uint64
		err      error
	)
	payload.Write(make([]byte, walSeqSize))
	if s.wal != nil {
		s.walGate.Lock()
		boundary, err = s.wal.Rotate()
		if err == nil {
			_, err = s.Fleet().WriteTo(&payload)
		}
		s.walGate.Unlock()
	} else {
		_, err = s.Fleet().WriteTo(&payload)
	}

	var n int64
	if err == nil {
		var retries int
		n, retries, err = st.savePayload(payload.Bytes(), boundary)
		s.ops.snapshotRetries.Add(uint64(retries))
	}
	if err != nil {
		s.ops.snapshotFailures.Add(1)
		s.snapFailures++
		s.lastSnapError = err.Error()
		if s.snapFailures >= s.cfg.DegradedAfter && !s.degraded.Load() {
			s.degraded.Store(true)
			s.logf("entering degraded mode after %d consecutive snapshot failures: %v", s.snapFailures, err)
		}
		return n, err
	}
	if s.degraded.Swap(false) {
		s.logf("snapshot succeeded; leaving degraded mode")
	}
	s.snapFailures = 0
	s.lastSnapError = ""
	if s.wal != nil {
		// The snapshot is durable: segments below the boundary are
		// superseded. A failed removal is retried by the next compaction.
		if removed, cerr := s.wal.CompactBefore(boundary); cerr != nil {
			s.logf("wal compaction after snapshot: removed %d segments, then: %v", removed, cerr)
		}
	}
	return n, nil
}

// ----- HTTP handlers ------------------------------------------------------

func (s *Server) buildMux() {
	m := http.NewServeMux()
	// Every route goes through the instrumented wrapper: the route label is
	// the registered pattern (bounded cardinality), the handler runs inside
	// a root span, and latency/status land in the registry.
	handle := func(method, route string, h http.HandlerFunc) {
		m.HandleFunc(method+" "+route, s.instrumented(method, route, h))
	}
	handle("POST", "/v1/db", s.handleCreate)
	handle("GET", "/v1/db/{id}", s.handleGet)
	handle("DELETE", "/v1/db/{id}", s.handleDelete)
	handle("POST", "/v1/db/{id}/login", s.handleLogin)
	handle("POST", "/v1/db/{id}/logout", s.handleLogout)
	handle("GET", "/v1/kpi", s.handleKPI)
	handle("GET", "/healthz", s.handleHealthz)
	handle("POST", "/v1/ops/resume", s.handleOpsResume)
	handle("POST", "/v1/ops/snapshot", s.handleOpsSnapshot)
	handle("POST", "/v1/repl/promote", s.handleReplPromotion)
	handle("POST", "/v1/repl/fence", s.handleReplFence)
	handle("POST", "/v1/repl/vote", s.handleElection(repl.KindVote))
	handle("POST", "/v1/repl/announce", s.handleElection(repl.KindAnnounce))
	handle("GET", "/v1/shard/map", s.handleShardMap)
	handle("POST", "/v1/shard/migrate", s.handleShardMigrate)
	handle("POST", "/v1/shard/reconcile", s.handleShardReconcile)
	// The observability surface itself is not traced or histogrammed:
	// scrapes would crowd the trace buffer with their own reads. The
	// replication data plane (polled continuously by followers) likewise
	// stays out of the request histograms and the trace buffer.
	m.HandleFunc("GET /metrics", s.handleMetrics)
	m.HandleFunc("GET /v1/traces", s.handleTraces)
	m.HandleFunc("GET /v1/repl/stream", s.handleReplStream)
	m.HandleFunc("GET /v1/repl/snapshot", s.handleReplSnapshot)
	// The shard data plane (group-to-group fan-out and slot transfer)
	// likewise stays out of the request histograms.
	m.HandleFunc("GET /v1/shard/due", s.handleShardDue)
	m.HandleFunc("POST /v1/shard/prewarm", s.handleShardPrewarm)
	m.HandleFunc("POST /v1/shard/adopt", s.handleShardAdopt)
	s.mux = m
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps err to a response with a fixed one-second Retry-After on
// retryable rejections. Handlers on a live *Server go through s.writeErr,
// which derives the hint from current pressure and lease state instead.
func writeErr(w http.ResponseWriter, err error) {
	writeErrAfter(w, err, time.Second)
}

func (s *Server) writeErr(w http.ResponseWriter, err error) {
	writeErrAfter(w, err, s.retryAfterFor(err))
}

// retryAfterFor computes the Retry-After hint for one retryable rejection
// from live server state: a shed request waits out the measured congestion,
// an open circuit waits out the breaker cooldown, a fenced or non-primary
// write waits out the remaining lease (after which either the primary
// renews or an election moves it).
func (s *Server) retryAfterFor(err error) time.Duration {
	switch {
	case errors.Is(err, admission.ErrShedLoad):
		if s.admission != nil {
			d := s.admission.TargetDelay()
			if p := s.admission.Pressure(); p.OldestSojourn > d {
				d = p.OldestSojourn
			}
			return d
		}
	case errors.Is(err, breaker.ErrOpen):
		if s.replBreakers != nil {
			return s.replBreakers.Cooldown()
		}
	case errors.Is(err, errNotPrimary), errors.Is(err, errSlotFenced):
		if s.lease != nil {
			if d := s.lease.Remaining(s.now()); d > 0 {
				return d
			}
		}
	}
	return time.Second
}

// earnRetry credits the retry budget for one completed upstream attempt;
// spendRetry asks it for permission to issue an internally generated retry
// (proxy re-route after 421, migration re-ship). The budget caps retry
// amplification at its earn ratio fleet-wide: during an outage, past the
// initial burst, at most one retry per ten successful calls. With breakers
// disabled the budget is nil and retries are always allowed.
func (s *Server) earnRetry() {
	if s.retryBudget != nil {
		s.retryBudget.Earn()
	}
}

func (s *Server) spendRetry() bool {
	return s.retryBudget == nil || s.retryBudget.Spend()
}

// routerBreakers returns the router-side breaker group, nil when the node
// is unpartitioned or breakers are disabled.
func (s *Server) routerBreakers() *breaker.Group {
	if s.router == nil {
		return nil
	}
	return s.router.breakers
}

// writeErrAfter renders err, attaching retryAfter (whole seconds, rounded
// up, at least 1) as the Retry-After header on every 429/503 whose cause
// is transient: shed load, open circuit, write fence, quorum miss, or a
// node that is not the primary.
func writeErrAfter(w http.ResponseWriter, err error, retryAfter time.Duration) {
	// Routing verdicts carry their own status (307/421) plus the current
	// map, so the client can fix its routing table instead of retrying a
	// bare 404 forever.
	var re *routeError
	if errors.As(err, &re) {
		if re.location != "" {
			w.Header().Set("Location", re.location)
		}
		if re.owner != "" {
			w.Header().Set(HeaderShardGroup, re.owner)
		}
		writeJSON(w, re.status, map[string]any{
			"error":     re.reason,
			"owner":     re.owner,
			"shard_map": re.m,
		})
		return
	}
	retryHeader := func() {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, admission.ErrShedLoad):
		// Priority admission shed the request before it ran; retry after
		// the measured congestion drains (or never, for background work).
		retryHeader()
		status = http.StatusTooManyRequests
	case errors.Is(err, breaker.ErrOpen):
		// A peer's circuit is open; the path heals itself via the cooldown
		// probe, so the client should wait that long, not hammer.
		retryHeader()
		status = http.StatusServiceUnavailable
	case errors.Is(err, errSlotFenced):
		// Mid-migration write fence: retry lands on whoever owns the slot
		// when the cutover settles.
		retryHeader()
		status = http.StatusServiceUnavailable
	case errors.Is(err, prorp.ErrUnknownDatabase):
		status = http.StatusNotFound
	case errors.Is(err, prorp.ErrDuplicateDatabase):
		status = http.StatusConflict
	case errors.Is(err, errQuorumUnreached):
		// The record is journaled locally and will replicate; the client's
		// quorum contract was not met in time, so the write is unacked.
		retryHeader()
		status = http.StatusServiceUnavailable
	case errors.Is(err, errNotPrimary):
		retryHeader()
		status = http.StatusServiceUnavailable
	case errors.Is(err, errJournalUnavailable):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

func pathID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, fmt.Errorf("bad database id %q", r.PathValue("id"))
	}
	return id, nil
}

type decisionJSON struct {
	Event       string     `json:"event"`
	At          time.Time  `json:"at"` // server-assigned event time, as journaled
	Allocate    bool       `json:"allocate"`
	Reclaim     bool       `json:"reclaim"`
	WakeAt      *time.Time `json:"wake_at,omitempty"`
	FromPrewarm bool       `json:"from_prewarm"`
	State       string     `json:"state"`
}

func (s *Server) decisionJSON(id int, at time.Time, d prorp.Decision) decisionJSON {
	out := decisionJSON{
		Event:       d.Event.String(),
		At:          at.UTC(),
		Allocate:    d.Allocate,
		Reclaim:     d.Reclaim,
		FromPrewarm: d.FromPrewarm,
	}
	if !d.WakeAt.IsZero() {
		at := d.WakeAt
		out.WakeAt = &at
	}
	if st, err := s.Fleet().State(id); err == nil {
		out.State = st.String()
	}
	return out
}

type createRequest struct {
	ID        int        `json:"id"`
	CreatedAt *time.Time `json:"created_at,omitempty"`
}

// maxCreateBody caps POST /v1/db request bodies; a create is a few dozen
// bytes of JSON, anything bigger is abuse or a bug.
const maxCreateBody = 64 << 10

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	// The body is read before routing: the database id decides the owning
	// group, and a proxied request replays the same bytes.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCreateBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorJSON{Error: fmt.Sprintf("create body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad create body: " + err.Error()})
		return
	}
	var req createRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad create body: " + err.Error()})
		return
	}
	if s.routeDB(w, r, req.ID, body, true) {
		return
	}
	if s.rejectNonPrimary(w) {
		return
	}
	createdAt := s.stamps.stamp(req.ID, s.now())
	if req.CreatedAt != nil {
		createdAt = *req.CreatedAt
	}
	s.walGate.RLock()
	_, jspan := s.tracer.Start(r.Context(), "wal.append")
	end, err := s.journalize(wal.RecordCreate, req.ID, createdAt)
	jspan.End()
	if err == nil {
		_, aspan := s.tracer.Start(r.Context(), "fleet.create")
		err = s.Fleet().Create(req.ID, createdAt)
		aspan.End()
	}
	s.walGate.RUnlock()
	if err == nil {
		// Quorum wait happens OUTSIDE walGate: a slow replica must not
		// block snapshots or other writers, only this ack.
		err = s.waitQuorum(r.Context(), end)
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":         req.ID,
		"state":      prorp.Resumed.String(),
		"created_at": createdAt.UTC(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	if s.routeDB(w, r, id, nil, true) {
		return
	}
	if s.rejectNonPrimary(w) {
		return
	}
	s.walGate.RLock()
	_, jspan := s.tracer.Start(r.Context(), "wal.append")
	end, err := s.journalize(wal.RecordDelete, id, s.now())
	jspan.End()
	if err == nil {
		_, aspan := s.tracer.Start(r.Context(), "fleet.delete")
		err = s.Fleet().Delete(id)
		aspan.End()
	}
	s.walGate.RUnlock()
	if err == nil {
		err = s.waitQuorum(r.Context(), end)
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.wakes.schedule(id, time.Time{}) // cancel any pending wake
	s.stamps.mu.Lock()
	delete(s.stamps.last, id)
	s.stamps.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	s.handleEvent(w, r, wal.RecordLogin, s.Fleet().Login)
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	s.handleEvent(w, r, wal.RecordLogout, s.Fleet().Idle)
}

func (s *Server) handleEvent(w http.ResponseWriter, r *http.Request, typ wal.RecordType, apply func(int, time.Time) (prorp.Decision, error)) {
	id, err := pathID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	if s.routeDB(w, r, id, nil, true) {
		return
	}
	if s.rejectNonPrimary(w) {
		return
	}
	at := s.stamps.stamp(id, s.now())
	// Journal first, then apply, both under the shared side of walGate:
	// the event is durable before it can influence fleet state, and a
	// concurrent snapshot can never split the pair across its boundary.
	s.walGate.RLock()
	_, jspan := s.tracer.Start(r.Context(), "wal.append")
	end, err := s.journalize(typ, id, at)
	jspan.End()
	var d prorp.Decision
	if err == nil {
		_, aspan := s.tracer.Start(r.Context(), "fleet.apply")
		d, err = apply(id, at)
		aspan.End()
	}
	s.walGate.RUnlock()
	if err == nil {
		err = s.waitQuorum(r.Context(), end)
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// The returned WakeAt is the complete desired timer state; reconcile.
	s.wakes.schedule(id, d.WakeAt)
	writeJSON(w, http.StatusOK, s.decisionJSON(id, at, d))
}

// eventStamps gives each database's creation and activity events strictly
// increasing whole seconds: the history table is unique on time_snapshot,
// so two events in one second would collapse into one tuple. It covers the
// events this process stamped, not those it restored or replicated.
type eventStamps struct {
	mu   sync.Mutex
	last map[int]int64
}

func (e *eventStamps) stamp(id int, now time.Time) time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	prev := e.last[id]
	if now.Unix() > prev {
		e.last[id] = now.Unix()
		return now
	}
	e.last[id] = prev + 1
	return time.Unix(prev+1, 0)
}

type predictionJSON struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

type windowJSON struct {
	Start       time.Time `json:"start"`
	Probability float64   `json:"probability"`
	Qualifies   bool      `json:"qualifies"`
	Selected    bool      `json:"selected"`
}

type dbJSON struct {
	ID                 int             `json:"id"`
	State              string          `json:"state"`
	ResourcesAvailable bool            `json:"resources_available"`
	Prediction         *predictionJSON `json:"prediction"`
	Windows            []windowJSON    `json:"windows,omitempty"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	if s.routeDB(w, r, id, nil, false) {
		return
	}
	// State and prediction come from one view of the database: a login
	// landing mid-request cannot pair the state before it with the
	// prediction after it. The per-window scan runs only when asked for.
	withWindows := r.URL.Query().Get("windows") != ""
	_, pspan := s.tracer.Start(r.Context(), "fleet.explain_prediction")
	t0 := time.Now()
	st, windows, start, end, ok, err := s.Fleet().Inspect(id, s.now(), withWindows)
	pspan.End()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.predHist.ObserveSince(t0)
	out := dbJSON{
		ID:                 id,
		State:              st.String(),
		ResourcesAvailable: st != prorp.PhysicallyPaused,
	}
	if ok {
		out.Prediction = &predictionJSON{Start: start, End: end}
	}
	if withWindows {
		out.Windows = make([]windowJSON, len(windows))
		for i, win := range windows {
			out.Windows[i] = windowJSON{
				Start:       win.Start,
				Probability: win.Probability,
				Qualifies:   win.Qualifies,
				Selected:    win.Selected,
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// admissionClassJSON is one priority class's admission accounting in
// /v1/kpi — the same counters /metrics exposes, surfaced here so a load
// generator can correlate its client-observed 429s with the server's shed
// accounting from the one scrape it already takes.
type admissionClassJSON struct {
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Inflight int    `json:"inflight"`
}

type kpiJSON struct {
	prorp.FleetKPI
	QoSPercent    float64   `json:"qos_percent"`
	Shards        int       `json:"shards"`
	PendingWakes  int       `json:"pending_wakes"`
	Now           time.Time `json:"now"`
	UptimeSeconds int64     `json:"uptime_seconds"`
	// Admission is the priority gate's per-class accounting (absent when
	// admission is disabled). In a scatter-merged report the counters are
	// fleet-wide sums.
	Admission map[string]admissionClassJSON `json:"admission,omitempty"`
	// Breakers maps inter-node path -> host -> breaker state (closed,
	// open, half-open) for every breaker group with traffic. A scatter
	// merge prefixes peer paths with their group name ("g2/router").
	Breakers map[string]map[string]string `json:"breakers,omitempty"`
}

func (s *Server) handleKPI(w http.ResponseWriter, r *http.Request) {
	now := s.now()
	// In a multi-group deployment /v1/kpi is fleet-wide: this group's
	// report merged with every peer's (?scope=local opts out — and is what
	// the fan-out itself asks peers for).
	if s.router.multiGroup() && r.URL.Query().Get("scope") != "local" {
		writeJSON(w, http.StatusOK, s.scatterKPI(now))
		return
	}
	writeJSON(w, http.StatusOK, s.localKPI(now))
}

// Degraded reports whether the server is in degraded mode: still serving
// traffic, but unable to persist snapshots.
func (s *Server) Degraded() bool { return s.degraded.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	lagRecords, lagSeconds := s.ReplicationLag()
	body := map[string]any{
		"status":                  "ok",
		"databases":               s.Fleet().Size(),
		"paused":                  s.Fleet().PausedCount(),
		"shards":                  s.Fleet().Shards(),
		"role":                    s.node.Role().String(),
		"replication_lag_records": lagRecords,
		"replication_lag_seconds": lagSeconds,
	}
	if rt := s.router; rt != nil {
		body["group"] = rt.group
		body["shardmap_version"] = rt.mapP.Load().Version()
		body["owned_slots"] = rt.ownedSlotCount()
	}
	follower := s.followerRef()
	if follower != nil {
		if e := follower.LastError(); e != "" {
			body["replication_last_error"] = e
		}
		body["primary_addr"] = follower.PrimaryURL()
	}
	if s.lease != nil {
		body["lease_remaining_seconds"] = s.lease.Remaining(s.now()).Seconds()
	}
	// Pressure state: /healthz is exempt from admission, so this is the
	// surface an operator (or load balancer) reads while everything else
	// sheds. "shedding" flips when the sojourn floor has descended into
	// the sheddable classes; open breakers are listed per peer host.
	if s.admission != nil {
		pressure := s.admission.Pressure()
		body["inflight"] = pressure.Inflight
		body["oldest_sojourn_seconds"] = pressure.OldestSojourn.Seconds()
		body["shedding"] = pressure.Shedding()
	}
	openBreakers := map[string]string{}
	for _, g := range []*breaker.Group{s.replBreakers, s.routerBreakers()} {
		if g == nil {
			continue
		}
		for host, st := range g.States() {
			if st != "closed" {
				openBreakers[host] = st
			}
		}
	}
	if len(openBreakers) > 0 {
		body["breakers"] = openBreakers
	}
	status := http.StatusOK
	if s.node.Fenced() {
		body["fenced"] = true
		if follower != nil {
			// A fenced ex-primary that re-attached to the new primary is a
			// healthy replica in every way that matters to a load balancer;
			// only its persisted history says "primary".
			body["effective_role"] = repl.RoleReplica.String()
		} else {
			// Fenced and following nobody: a zombie that can neither accept
			// writes nor converge. Unhealthy until failover re-attaches it.
			body["status"] = "fenced"
			status = http.StatusServiceUnavailable
		}
	}
	if s.degraded.Load() {
		// Degraded: traffic is served but durability is gone — report
		// unhealthy so supervisors and load balancers can react.
		s.snapMu.Lock()
		lastErr, failures := s.lastSnapError, s.snapFailures
		s.snapMu.Unlock()
		body["status"] = "degraded"
		body["snapshot_failures"] = failures
		body["last_snapshot_error"] = lastErr
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) handleOpsResume(w http.ResponseWriter, r *http.Request) {
	if s.rejectNonPrimary(w) {
		return
	}
	if s.router.multiGroup() {
		wakes, ids, partial, groups := s.globalTick(s.now())
		if ids == nil {
			ids = []int{}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"prewarmed":       ids,
			"wakes_delivered": wakes,
			"scope":           "global",
			"partial":         partial,
			"groups":          groups,
		})
		return
	}
	wakes, prewarmed := s.tick(s.now())
	ids := make([]int, len(prewarmed))
	for i, pw := range prewarmed {
		ids[i] = pw.ID
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"prewarmed":       ids,
		"wakes_delivered": wakes,
	})
}

func (s *Server) handleOpsSnapshot(w http.ResponseWriter, r *http.Request) {
	n, err := s.writeSnapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":  s.cfg.SnapshotPath,
		"bytes": n,
	})
}
