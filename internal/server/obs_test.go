package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"prorp/internal/obs"
	"prorp/internal/repl"
	"prorp/internal/wal"
)

// newObsServer builds a fully wired server — WAL, snapshots, fake clock —
// so /metrics has every registered family live.
func newObsServer(t *testing.T, clock *fakeClock) *Server {
	t.Helper()
	dir := t.TempDir()
	srv, err := New(Config{
		Options:      testOptions(),
		Shards:       4,
		SnapshotPath: filepath.Join(dir, "fleet.snap"),
		WALDir:       filepath.Join(dir, "wal"),
		WALFsync:     wal.FsyncAlways,
		Now:          clock.Now,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// scrape fetches /metrics and parses the exposition into samples by
// canonical key.
func scrape(t *testing.T, s *Server) map[string]obs.Sample {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	samples, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	out := make(map[string]obs.Sample, len(samples))
	for _, sm := range samples {
		out[sm.Key()] = sm
	}
	return out
}

// sampleValue finds the one sample with the given metric name and, when
// want is non-empty, the given label subset.
func sampleValue(t *testing.T, samples map[string]obs.Sample, name string, want map[string]string) float64 {
	t.Helper()
	for _, sm := range samples {
		if sm.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if sm.Label(k) != v {
				match = false
				break
			}
		}
		if match {
			return sm.Value
		}
	}
	t.Fatalf("no sample %s %v in scrape", name, want)
	return 0
}

// TestMetricsEndpoint is the acceptance check for the observability
// surface: after real traffic, /metrics serves valid Prometheus text with
// populated HTTP latency histograms and every KPI/WAL counter the JSON
// endpoint reports.
func TestMetricsEndpoint(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srv := newObsServer(t, clock)

	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	code, out = call(t, srv, "POST", "/v1/db/1/login", "")
	wantStatus(t, code, http.StatusOK, out)
	clock.Set(t0.Add(17 * time.Hour))
	code, out = call(t, srv, "POST", "/v1/db/1/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	code, out = call(t, srv, "GET", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)
	code, out = call(t, srv, "POST", "/v1/ops/snapshot", "")
	wantStatus(t, code, http.StatusOK, out)

	samples := scrape(t, srv)

	// The HTTP route histogram is populated: the create route saw exactly
	// one request, and its +Inf bucket agrees with its count.
	createRoute := map[string]string{"route": "/v1/db", "method": "POST"}
	if n := sampleValue(t, samples, "prorp_http_request_duration_seconds_count", createRoute); n != 1 {
		t.Fatalf("create route histogram count = %v, want 1", n)
	}
	inf := map[string]string{"route": "/v1/db", "method": "POST", "le": "+Inf"}
	if n := sampleValue(t, samples, "prorp_http_request_duration_seconds_bucket", inf); n != 1 {
		t.Fatalf("create route +Inf bucket = %v, want 1", n)
	}
	if n := sampleValue(t, samples, "prorp_http_requests_total",
		map[string]string{"route": "/v1/db", "method": "POST", "code": "201"}); n != 1 {
		t.Fatalf("create route request counter = %v, want 1", n)
	}

	// KPI counters bridged onto the registry agree with the traffic.
	for name, want := range map[string]float64{
		"prorp_fleet_creates_total": 1,
		"prorp_fleet_logins_total":  1,
		"prorp_fleet_logouts_total": 1,
	} {
		if got := sampleValue(t, samples, name, nil); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}

	// Every /v1/kpi counter family has a /metrics counterpart — the scrape
	// is a superset of the JSON endpoint.
	for _, name := range []string{
		"prorp_fleet_creates_total", "prorp_fleet_deletes_total",
		"prorp_fleet_logins_total", "prorp_fleet_logouts_total",
		"prorp_fleet_wakes_total", "prorp_fleet_warm_resumes_total",
		"prorp_fleet_cold_resumes_total", "prorp_fleet_logical_pauses_total",
		"prorp_fleet_physical_pauses_total", "prorp_fleet_prewarms_total",
		"prorp_fleet_prewarms_used_total", "prorp_fleet_prewarms_wasted_total",
		"prorp_fleet_qos_percent",
		"prorp_snapshot_retries_total", "prorp_snapshot_failures_total",
		"prorp_snapshot_fallbacks_total",
		"prorp_prewarm_retries_total", "prorp_prewarm_failures_total",
		"prorp_wake_retries_total", "prorp_wake_failures_total",
		"prorp_wal_appends_total", "prorp_wal_append_failures_total",
		"prorp_wal_fsyncs_total", "prorp_wal_rotations_total",
		"prorp_wal_segments_compacted_total", "prorp_wal_replayed_records_total",
		"prorp_wal_replay_skipped_total", "prorp_wal_torn_segments_total",
		"prorp_wal_truncated_bytes_total",
		"prorp_fleet_databases", "prorp_fleet_physically_paused",
		"prorp_fleet_shards", "prorp_pending_wakes", "prorp_uptime_seconds",
		"prorp_degraded",
	} {
		sampleValue(t, samples, name, nil)
	}

	// The mutations were journaled, timed, and fsynced.
	if n := sampleValue(t, samples, "prorp_wal_appends_total", nil); n < 3 {
		t.Fatalf("prorp_wal_appends_total = %v, want >= 3", n)
	}
	if n := sampleValue(t, samples, "prorp_wal_append_duration_seconds_count", nil); n < 3 {
		t.Fatalf("wal append histogram count = %v, want >= 3", n)
	}
	if n := sampleValue(t, samples, "prorp_wal_fsync_duration_seconds_count", nil); n < 1 {
		t.Fatalf("wal fsync histogram count = %v, want >= 1", n)
	}

	// Fleet decision timings flowed through the sharded runtime.
	if n := sampleValue(t, samples, "prorp_decision_duration_seconds_count",
		map[string]string{"kind": "login"}); n != 1 {
		t.Fatalf("login decision histogram count = %v, want 1", n)
	}

	// The manual snapshot was timed.
	if n := sampleValue(t, samples, "prorp_snapshot_save_duration_seconds_count", nil); n < 1 {
		t.Fatalf("snapshot save histogram count = %v, want >= 1", n)
	}
}

// TestKPIShapeFrozen pins the exact top-level key set of GET /v1/kpi: the
// registry bridges must never change the JSON endpoint's shape.
func TestKPIShapeFrozen(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srv := newObsServer(t, clock)

	code, out := call(t, srv, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)

	got := make([]string, 0, len(out))
	for k := range out {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"admission",
		"cold_resumes", "creates", "databases", "deletes", "logical_pauses",
		"logically_paused", "logins", "logouts", "now", "pending_wakes",
		"physical_pauses", "physically_paused", "prewarm_failures",
		"prewarm_retries", "prewarms", "prewarms_used", "prewarms_wasted",
		"qos_percent", "resumed", "shards",
		"snapshot_failures", "snapshot_fallbacks", "snapshot_retries",
		"uptime_seconds", "wake_failures", "wake_retries", "wakes",
		"wal_append_failures", "wal_appends", "wal_fsyncs", "wal_replay_skipped",
		"wal_replayed_records", "wal_rotations", "wal_segments_compacted",
		"wal_torn_segments", "wal_truncated_bytes", "warm_resumes",
	}
	if len(got) != len(want) {
		t.Fatalf("kpi keys = %v\nwant %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kpi keys = %v\nwant %v", got, want)
		}
	}
}

// TestTracesEndpoint checks that real requests land in the slow-trace
// buffer with their child spans, and that the JSON surface is well formed.
func TestTracesEndpoint(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srv := newObsServer(t, clock)

	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	code, out = call(t, srv, "POST", "/v1/db/1/login", "")
	wantStatus(t, code, http.StatusOK, out)

	req := httptest.NewRequest("GET", "/v1/traces", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/traces = %d", rec.Code)
	}
	var body struct {
		Capacity   int               `json:"capacity"`
		TraceCount int               `json:"trace_count"`
		Traces     []obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("traces JSON: %v (%s)", err, rec.Body.String())
	}
	if body.Capacity != obs.DefaultTraceCapacity {
		t.Fatalf("capacity = %d", body.Capacity)
	}
	if body.TraceCount != len(body.Traces) || body.TraceCount < 2 {
		t.Fatalf("trace_count = %d, traces = %d, want >= 2", body.TraceCount, len(body.Traces))
	}
	var sawCreate bool
	for _, tr := range body.Traces {
		if tr.TraceID == "" || len(tr.Spans) == 0 {
			t.Fatalf("malformed trace %+v", tr)
		}
		if tr.Root == "POST /v1/db" {
			sawCreate = true
			names := make(map[string]bool)
			for _, sp := range tr.Spans {
				names[sp.Name] = true
			}
			if !names["wal.append"] || !names["fleet.create"] {
				t.Fatalf("create trace spans = %+v, want wal.append and fleet.create", tr.Spans)
			}
		}
	}
	if !sawCreate {
		t.Fatalf("no POST /v1/db trace retained: %+v", body.Traces)
	}
}

// stubParkedStream is a replication Doer whose primary is always caught up:
// like a real one it holds every stream poll open, here until the follower
// gives up on it. It keeps a replica's follower quiet while a test
// exercises the HTTP surface.
type stubParkedStream struct{}

func (stubParkedStream) Do(req *http.Request) (*http.Response, error) {
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// TestLatencyHistogramStatusLabels pins the success/failure split of the
// route histograms: rejected and failed requests land in series labeled
// with their status code and never pollute the status="ok" buckets — a
// replica 503-ing writes in microseconds must not drag a route's success
// p99 toward zero.
func TestLatencyHistogramStatusLabels(t *testing.T) {
	clock := &fakeClock{t: t0}
	dir := t.TempDir()
	srv, err := New(Config{
		Options:          testOptions(),
		Shards:           4,
		SnapshotPath:     filepath.Join(dir, "fleet.snap"),
		WALDir:           filepath.Join(dir, "wal"),
		WALFsync:         wal.FsyncAlways,
		Now:              clock.Now,
		Role:             repl.RoleReplica,
		PrimaryAddr:      "http://stub",
		ReplDoer:         stubParkedStream{},
		ReplPollInterval: time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := []struct {
		method, path, body string
		wantCode           int
		route, status      string
	}{
		{"POST", "/v1/db", `{"id":1}`, http.StatusServiceUnavailable, "/v1/db", "503"},
		{"POST", "/v1/db/1/login", "", http.StatusServiceUnavailable, "/v1/db/{id}/login", "503"},
		{"GET", "/v1/db/9", "", http.StatusNotFound, "/v1/db/{id}", "404"},
		{"GET", "/healthz", "", http.StatusOK, "/healthz", "ok"},
		{"GET", "/v1/kpi", "", http.StatusOK, "/v1/kpi", "ok"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.wantCode {
			t.Fatalf("%s %s = %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.wantCode, rec.Body.String())
		}
	}

	samples := scrape(t, srv)
	for _, tc := range cases {
		labels := map[string]string{"route": tc.route, "method": tc.method, "status": tc.status}
		if n := sampleValue(t, samples, "prorp_http_request_duration_seconds_count", labels); n != 1 {
			t.Fatalf("%s %s status=%s histogram count = %v, want 1", tc.method, tc.route, tc.status, n)
		}
	}
	// The failures never touched the success population: the ok-labeled
	// series of the rejected and missed routes are still empty.
	for _, r := range []struct{ method, route string }{
		{"POST", "/v1/db"},
		{"POST", "/v1/db/{id}/login"},
		{"GET", "/v1/db/{id}"},
	} {
		labels := map[string]string{"route": r.route, "method": r.method, "status": "ok"}
		if n := sampleValue(t, samples, "prorp_http_request_duration_seconds_count", labels); n != 0 {
			t.Fatalf("%s %s ok-series count = %v, want 0", r.method, r.route, n)
		}
	}
	// The request counter keeps its code label, status split or not.
	if n := sampleValue(t, samples, "prorp_http_requests_total",
		map[string]string{"route": "/v1/db", "method": "POST", "code": "503"}); n != 1 {
		t.Fatalf("rejected create request counter = %v, want 1", n)
	}
}

// TestRouterStatusLabelSeries pins the routing verdicts' place in the
// latency histogram: a 307 redirect and a 421 refusal are routing
// outcomes, not successes on this node, so each lands in its own numeric
// status series and the "ok" population stays pure.
func TestRouterStatusLabelSeries(t *testing.T) {
	clock := &fakeClock{t: t0}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, func(g string, cfg *Config) {
		cfg.RouterRedirect = true
	})
	g1 := srvs["g1"]
	m := g1.router.mapP.Load()
	remote := idsOwnedBy(t, m, "g2", 1, 1)[0]

	// A remote-owned read bounces with 307; a stale-version read refuses
	// with 421.
	rec := httptest.NewRecorder()
	g1.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/db/%d", remote), nil))
	if rec.Code != http.StatusTemporaryRedirect {
		t.Fatalf("remote read = %d, want 307", rec.Code)
	}
	req := httptest.NewRequest("GET", fmt.Sprintf("/v1/db/%d", remote), nil)
	req.Header.Set(HeaderShardmapVersion, "0")
	rec = httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("stale read = %d, want 421", rec.Code)
	}

	samples := scrape(t, g1)
	for _, status := range []string{"307", "421"} {
		labels := map[string]string{"route": "/v1/db/{id}", "method": "GET", "status": status}
		if n := sampleValue(t, samples, "prorp_http_request_duration_seconds_count", labels); n != 1 {
			t.Fatalf("status=%s histogram count = %v, want 1", status, n)
		}
	}
	okLabels := map[string]string{"route": "/v1/db/{id}", "method": "GET", "status": "ok"}
	if n := sampleValue(t, samples, "prorp_http_request_duration_seconds_count", okLabels); n != 0 {
		t.Fatalf("ok-series count = %v, want 0 — routing verdicts leaked into it", n)
	}
}

// TestOverloadMetricsExposed checks the admission and breaker series on a
// fully wired server: real traffic shows up in the per-class admission
// counters, and the breaker families are registered (all zero while no
// inter-node call has failed).
func TestOverloadMetricsExposed(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srv := newObsServer(t, clock)

	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	code, out = call(t, srv, "GET", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)

	samples := scrape(t, srv)
	if n := sampleValue(t, samples, "prorp_admission_requests_total",
		map[string]string{"class": "read"}); n < 1 {
		t.Fatalf("read-class admitted = %v, want >= 1", n)
	}
	if n := sampleValue(t, samples, "prorp_admission_shed_total",
		map[string]string{"class": "read"}); n != 0 {
		t.Fatalf("read-class shed = %v, want 0", n)
	}
	if n := sampleValue(t, samples, "prorp_breaker_open",
		map[string]string{"path": "repl"}); n != 0 {
		t.Fatalf("open repl breakers = %v, want 0", n)
	}
}

// TestAdmissionDisabled covers the negative-MaxInflight escape hatch (the
// overhead benchmark's baseline and an operator's kill switch): the server
// serves normally, /healthz drops the pressure fields, and no
// prorp_admission series is registered.
func TestAdmissionDisabled(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srv, err := New(Config{Options: testOptions(), Shards: 4, Now: clock.Now,
		AdmissionMaxInflight: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	code, out = call(t, srv, "GET", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)

	code, health := call(t, srv, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, health)
	for _, key := range []string{"inflight", "oldest_sojourn_seconds", "shedding"} {
		if _, ok := health[key]; ok {
			t.Fatalf("healthz reports %q with admission disabled: %v", key, health)
		}
	}

	for key := range scrape(t, srv) {
		if strings.HasPrefix(key, "prorp_admission_") {
			t.Fatalf("admission series %q registered with admission disabled", key)
		}
	}
}
