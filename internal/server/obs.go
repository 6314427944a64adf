package server

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"prorp"
	"prorp/internal/admission"
	"prorp/internal/obs"
)

// Observability surface of the serving runtime.
//
//   - GET /metrics     Prometheus text exposition of the whole registry: the
//     per-route HTTP latency/status histograms, the fleet runtime's decision
//     and Algorithm 5 scan histograms, WAL and snapshot-store timings, and
//     func-metric bridges for every FleetKPI counter — a strict superset of
//     GET /v1/kpi, whose JSON shape is frozen.
//   - GET /v1/traces   the slowest recent request traces (span trees), JSON.
//
// Metric naming: prorp_<subsystem>_<name>[_<unit>|_total]; durations are
// seconds, sizes are bytes. See DESIGN.md §8.

// statusWriter captures the response status for the status-code label.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrumented wraps one route's handler with the HTTP middleware: a root
// span named after the route, a per-route latency histogram, and a
// per-route/status request counter. The route label is the registered
// pattern, never the raw URL — bounded cardinality by construction.
//
// Latency is recorded per status class: successes (2xx/3xx) land in the
// status="ok" series, failures in a series labeled with their numeric
// code. Success latencies and failure latencies are different populations
// — a replica 503-ing writes in microseconds would otherwise drag the
// route's success p99 toward zero — so the "ok" buckets stay pure.
func (s *Server) instrumented(method, route string, h http.HandlerFunc) http.HandlerFunc {
	hist := func(status string) *obs.Histogram {
		return s.reg.Histogram("prorp_http_request_duration_seconds",
			"HTTP request latency by route and status class.", obs.LatencyBuckets,
			obs.L("route", route), obs.L("method", method), obs.L("status", status))
	}
	okHist := hist("ok")
	class, gated := classifyRoute(method, route)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ctx, span := s.tracer.Start(r.Context(), method+" "+route)
		sw := &statusWriter{ResponseWriter: w}
		// The admission gate sits inside the instrumentation so sheds are
		// counted and traced like any other terminal status: a 429 storm
		// must be visible in the same histograms the SLO reads from.
		if s.admission == nil {
			h(sw, r.WithContext(ctx))
		} else if release, err := s.admission.Acquire(class); err != nil && gated {
			s.writeErr(sw, err)
		} else {
			if err == nil {
				defer release()
			}
			h(sw, r.WithContext(ctx))
		}
		span.End()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		lat := okHist
		// 307 is a routing verdict (the shard router bouncing a request to
		// its owning group), not a success on this route: it gets its own
		// numeric series so "ok" stays the served-here population.
		if sw.status >= 400 || sw.status == http.StatusTemporaryRedirect {
			lat = hist(strconv.Itoa(sw.status)) // bounded: HTTP status codes
		}
		lat.ObserveSince(t0)
		s.reg.Counter("prorp_http_requests_total",
			"HTTP requests by route and status code.",
			obs.L("route", route), obs.L("method", method),
			obs.L("code", strconv.Itoa(sw.status))).Inc()
	}
}

// classifyRoute maps one registered route onto its admission class,
// implementing the overload contract: decision traffic (logins and the
// control plane that keeps the cluster writable) is shed last, then reads,
// then history writes, then background fan-out — so a login is never stuck
// behind ten thousand history appends. /healthz is exempt (gated=false): an
// overloaded node must keep answering its load balancer, and the answer is
// where the pressure state is reported.
func classifyRoute(method, route string) (admission.Class, bool) {
	switch route {
	case "/healthz":
		return admission.Decision, false
	case "/v1/db/{id}/login", "/v1/ops/resume",
		"/v1/repl/promote", "/v1/repl/fence", "/v1/repl/vote", "/v1/repl/announce":
		return admission.Decision, true
	case "/v1/db/{id}":
		if method == http.MethodGet {
			return admission.Read, true
		}
		return admission.Write, true // DELETE
	case "/v1/kpi", "/v1/shard/map":
		return admission.Read, true
	case "/v1/db", "/v1/db/{id}/logout":
		return admission.Write, true
	}
	// Everything else — snapshots, migrations, reconciles — is background
	// work: first to shed, because it retries on its own schedule.
	return admission.Background, true
}

// registerOverloadMetrics exposes the admission controller's per-class
// accounting and the circuit-breaker groups' lifecycle counters:
//
//	prorp_admission_requests_total{class}        admitted requests
//	prorp_admission_shed_total{class}            requests shed with 429
//	prorp_admission_inflight{class}              currently admitted
//	prorp_admission_oldest_sojourn_seconds       age of the oldest in-flight request
//	prorp_breaker_{trips,rejections,probes,recoveries}_total{path}
//	prorp_breaker_open{path}                     breakers currently open
//
// The breaker path label is the doer group: "repl" (follower poll, resync,
// election, announce) or "router" (proxy, scatter, migration ship).
func (s *Server) registerOverloadMetrics() {
	reg := s.reg
	if s.admission == nil {
		s.registerBreakerMetrics()
		return
	}
	for _, class := range admission.Classes() {
		class := class
		l := obs.L("class", class.String())
		reg.CounterFunc("prorp_admission_requests_total",
			"Requests admitted, by priority class.",
			func() uint64 { return s.admission.Stats(class).Admitted }, l)
		reg.CounterFunc("prorp_admission_shed_total",
			"Requests shed by priority admission, by class.",
			func() uint64 { return s.admission.Stats(class).Shed }, l)
		reg.GaugeFunc("prorp_admission_inflight",
			"Requests currently admitted, by priority class.",
			func() float64 { return float64(s.admission.Stats(class).Inflight) }, l)
	}
	reg.GaugeFunc("prorp_admission_oldest_sojourn_seconds",
		"Age of the oldest request still in flight (the CoDel shed signal).",
		func() float64 { return s.admission.Pressure().OldestSojourn.Seconds() })
	s.registerBreakerMetrics()
}

// registerBreakerMetrics exposes the circuit-breaker groups' lifecycle
// counters; split from registerOverloadMetrics so a server with the
// admission gate disabled still reports its breakers.
func (s *Server) registerBreakerMetrics() {
	reg := s.reg
	registerBreaker := func(path string, stats func() (trips, rejections, probes, recoveries, open uint64)) {
		l := obs.L("path", path)
		reg.CounterFunc("prorp_breaker_trips_total",
			"Circuit breakers tripped open, by inter-node path.",
			func() uint64 { t, _, _, _, _ := stats(); return t }, l)
		reg.CounterFunc("prorp_breaker_rejections_total",
			"Calls refused by an open breaker, by inter-node path.",
			func() uint64 { _, r, _, _, _ := stats(); return r }, l)
		reg.CounterFunc("prorp_breaker_probes_total",
			"Half-open recovery probes admitted, by inter-node path.",
			func() uint64 { _, _, p, _, _ := stats(); return p }, l)
		reg.CounterFunc("prorp_breaker_recoveries_total",
			"Breakers re-closed by a successful probe, by inter-node path.",
			func() uint64 { _, _, _, rc, _ := stats(); return rc }, l)
		reg.GaugeFunc("prorp_breaker_open",
			"Breakers currently open, by inter-node path.",
			func() float64 { _, _, _, _, o := stats(); return float64(o) }, l)
	}
	if s.replBreakers != nil {
		g := s.replBreakers
		registerBreaker("repl", func() (uint64, uint64, uint64, uint64, uint64) {
			st := g.Stats()
			return st.Trips, st.Rejections, st.Probes, st.Recoveries, st.Open
		})
	}
	if s.router != nil && s.router.breakers != nil {
		g := s.router.breakers
		registerBreaker("router", func() (uint64, uint64, uint64, uint64, uint64) {
			st := g.Stats()
			return st.Trips, st.Rejections, st.Probes, st.Recoveries, st.Open
		})
	}
}

// registerServerMetrics bridges the serving layer's existing counters and
// gauges onto the registry as sampled-at-scrape func metrics, so /metrics
// is a superset of /v1/kpi without double bookkeeping. Fleet KPI counters
// are sampled through one shared snapshotter per scrape family; the
// per-scrape cost is a few shard-mutex sweeps, irrelevant at scrape rates.
func (s *Server) registerServerMetrics() {
	reg := s.reg

	reg.GaugeFunc("prorp_uptime_seconds", "Seconds since the server booted.",
		func() float64 { return s.now().Sub(s.started).Seconds() })
	reg.GaugeFunc("prorp_degraded", "1 while the server is in degraded mode.",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("prorp_pending_wakes", "Wake-up timers currently scheduled.",
		func() float64 { return float64(s.wakes.pending()) })

	// Fleet gauges.
	gauges := map[string]struct {
		help string
		fn   func() float64
	}{
		"prorp_fleet_databases":         {"Databases in the fleet.", func() float64 { return float64(s.Fleet().Size()) }},
		"prorp_fleet_physically_paused": {"Databases physically paused.", func() float64 { return float64(s.Fleet().PausedCount()) }},
		"prorp_fleet_shards":            {"Fleet stripe count.", func() float64 { return float64(s.Fleet().Shards()) }},
	}
	for name, g := range gauges {
		reg.GaugeFunc(name, g.help, g.fn)
	}

	// FleetKPI transition counters, sampled from the runtime.
	kpiCounters := []struct {
		name, help string
		fn         func() uint64
	}{
		{"prorp_fleet_creates_total", "Databases created.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.Creates })},
		{"prorp_fleet_deletes_total", "Databases deleted.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.Deletes })},
		{"prorp_fleet_logins_total", "Customer logins recorded.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.Logins })},
		{"prorp_fleet_logouts_total", "Customer logouts recorded.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.Logouts })},
		{"prorp_fleet_wakes_total", "Wake-up timers delivered.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.Wakes })},
		{"prorp_fleet_warm_resumes_total", "First logins served without a cold resume (QoS numerator).", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.WarmResumes })},
		{"prorp_fleet_cold_resumes_total", "First logins that hit a cold resume.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.ColdResumes })},
		{"prorp_fleet_logical_pauses_total", "Logical pause transitions.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.LogicalPauses })},
		{"prorp_fleet_physical_pauses_total", "Physical pause transitions.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.PhysicalPauses })},
		{"prorp_fleet_prewarms_total", "Algorithm 5 proactive resumes.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.Prewarms })},
		{"prorp_fleet_prewarms_used_total", "Pre-warms whose next login was warm.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.PrewarmsUsed })},
		{"prorp_fleet_prewarms_wasted_total", "Pre-warms that paused again untouched.", s.kpiField(func(k prorp.FleetKPI) uint64 { return k.PrewarmsWasted })},
	}
	for _, c := range kpiCounters {
		reg.CounterFunc(c.name, c.help, c.fn)
	}
	reg.GaugeFunc("prorp_fleet_qos_percent",
		"Share of first logins after idle that found resources available.",
		func() float64 { return s.Fleet().KPI().QoSPercent() })

	// Serving-layer resilience counters (the opsCounters atomics).
	opsCounters := []struct {
		name, help string
		v          interface{ Load() uint64 }
	}{
		{"prorp_snapshot_retries_total", "Snapshot write retries.", &s.ops.snapshotRetries},
		{"prorp_snapshot_failures_total", "Snapshot writes that failed after retries.", &s.ops.snapshotFailures},
		{"prorp_snapshot_fallbacks_total", "Boots restored from the .bak fallback snapshot.", &s.ops.snapshotFallbacks},
		{"prorp_prewarm_retries_total", "Prewarm hook retries.", &s.ops.prewarmRetries},
		{"prorp_prewarm_failures_total", "Prewarm hooks that failed after retries.", &s.ops.prewarmFailures},
		{"prorp_wake_retries_total", "Wake hook retries.", &s.ops.wakeRetries},
		{"prorp_wake_failures_total", "Wake deliveries rescheduled after retries.", &s.ops.wakeFailures},
		{"prorp_wal_append_failures_total", "Journal appends that failed after retries.", &s.ops.walAppendFailures},
		{"prorp_wal_replayed_records_total", "Journal records applied by boot replay.", &s.ops.walReplayed},
		{"prorp_wal_replay_skipped_total", "Journal records skipped by boot replay.", &s.ops.walReplaySkipped},
		{"prorp_wal_torn_segments_total", "Journal segments cut short at a torn frame.", &s.ops.walTornSegments},
		{"prorp_wal_truncated_bytes_total", "Journal bytes discarded past torn frames.", &s.ops.walTruncatedBytes},
	}
	for _, c := range opsCounters {
		v := c.v
		reg.CounterFunc(c.name, c.help, func() uint64 { return v.Load() })
	}

	// Journal counters, sampled from the WAL's own metrics (zero series
	// when no journal is configured — absent metrics lie less than zeros).
	if s.wal != nil {
		walCounters := []struct {
			name, help string
			fn         func() uint64
		}{
			{"prorp_wal_appends_total", "Journal records appended and acknowledged.", func() uint64 { return s.wal.Metrics().Appends }},
			{"prorp_wal_bytes_appended_total", "Journal bytes appended.", func() uint64 { return s.wal.Metrics().BytesAppended }},
			{"prorp_wal_fsyncs_total", "Journal fsyncs issued.", func() uint64 { return s.wal.Metrics().Fsyncs }},
			{"prorp_wal_rotations_total", "Journal segment rotations.", func() uint64 { return s.wal.Metrics().Rotations }},
			{"prorp_wal_segments_compacted_total", "Journal segments deleted by compaction.", func() uint64 { return s.wal.Metrics().Compacted }},
		}
		for _, c := range walCounters {
			reg.CounterFunc(c.name, c.help, c.fn)
		}
	}

	s.registerReplMetrics()
	s.registerRouterMetrics()
	s.registerOverloadMetrics()
}

// registerRouterMetrics exposes the shard router's state and traffic
// split: the map version and owned-slot gauges, the local/proxied/
// redirected/misrouted request partition, scatter-gather accounting, and
// migration outcomes. No-op in a single-group layout.
func (s *Server) registerRouterMetrics() {
	rt := s.router
	if rt == nil {
		return
	}
	reg := s.reg
	reg.GaugeFunc("prorp_shardmap_version", "Current shard-map version (the routing epoch).",
		func() float64 { return float64(rt.mapP.Load().Version()) })
	reg.GaugeFunc("prorp_router_owned_slots", "Slots the current map assigns to this group.",
		func() float64 { return float64(rt.ownedSlotCount()) })
	routerCounters := []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"prorp_router_local_requests_total", "Per-database requests owned and served locally.", &rt.localRequests},
		{"prorp_router_proxied_total", "Per-database requests proxied to their owning group.", &rt.proxied},
		{"prorp_router_redirected_total", "Per-database requests answered with a 307 redirect to their owner.", &rt.redirected},
		{"prorp_router_misrouted_total", "Requests refused with 421: stale map versions, forwarding loops, or an owner with no known address.", &rt.misrouted},
		{"prorp_router_fence_rejects_total", "Writes refused by a migration write fence.", &rt.fenceRejects},
		{"prorp_scatter_requests_total", "Scatter-gather fan-outs started.", &rt.scatterRequests},
		{"prorp_scatter_failures_total", "Per-group scatter failures (errors and timeouts).", &rt.scatterFailures},
		{"prorp_scatter_partials_total", "Scatter-gathers that returned partial results.", &rt.scatterPartials},
		{"prorp_shard_migrations_total", "Slot migrations completed by this group as source.", &rt.migrations},
		{"prorp_shard_migration_failures_total", "Slot migrations that failed or aborted.", &rt.migrationsFail},
		{"prorp_shard_dbs_migrated_total", "Databases shipped out by completed migrations.", &rt.dbsMigrated},
		{"prorp_shardmap_adoptions_total", "Newer shard maps adopted (from peers or migration cutover).", &rt.adoptions},
	}
	for _, c := range routerCounters {
		v := c.v
		reg.CounterFunc(c.name, c.help, func() uint64 { return v.Load() })
	}
}

// kpiField builds a sampler for one KPI counter. Each scrape re-reads the
// runtime; the sweep is cheap and scrapes are rare.
func (s *Server) kpiField(pick func(prorp.FleetKPI) uint64) func() uint64 {
	return func() uint64 { return pick(s.Fleet().KPI()) }
}

// Registry exposes the server's metric registry, for host wiring (the
// debug listener) and tests.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the server's tracer, for tests.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// ?scope=global on a multi-group node merges every group's exposition
	// under an injected group label (peers answer their plain local scrape,
	// so the fan-out never recurses). The default stays local: scrapes are
	// frequent and per-node.
	if s.router.multiGroup() && r.URL.Query().Get("scope") == "global" {
		s.handleMetricsGlobal(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.tracer.Slowest()
	if traces == nil {
		traces = []obs.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"retention":   obs.DefaultTraceMaxAge.String(),
		"capacity":    obs.DefaultTraceCapacity,
		"trace_count": len(traces),
		"traces":      traces,
	})
}
