package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prorp/internal/repl"
	"prorp/internal/wal"
)

// mapDoer is the in-process replication network: requests are routed to a
// handler by URL host, so a primary/replica pair runs in one test without
// listeners. Rebinding a host models a node rebooting at the same address;
// an unbound host refuses connections.
type mapDoer struct {
	mu    sync.Mutex
	hosts map[string]http.Handler
}

func (d *mapDoer) bind(host string, h http.Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hosts == nil {
		d.hosts = make(map[string]http.Handler)
	}
	if h == nil {
		delete(d.hosts, host)
		return
	}
	d.hosts[host] = h
}

func (d *mapDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	h := d.hosts[req.URL.Host]
	d.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("connection refused: %s is down", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// napSleep is a real but capped sleep, so millisecond follower polls and
// backoff waits don't stretch the suite.
func napSleep(d time.Duration) {
	if d > time.Millisecond {
		d = time.Millisecond
	}
	time.Sleep(d)
}

// waitUntil polls cond until it holds or a generous deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// archive serializes a server's fleet to its canonical archive bytes — the
// byte-equality oracle for follower convergence.
func archive(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Fleet().WriteTo(&buf); err != nil {
		t.Fatalf("archiving fleet: %v", err)
	}
	return buf.Bytes()
}

// replConfig builds one node's Config rooted in dir: snapshots, journal,
// fake clock, capped sleeps. Tests layer the role bits on top.
func replConfig(dir string, clock interface{ Now() time.Time }) Config {
	return Config{
		Options:         testOptions(),
		Shards:          4,
		SnapshotPath:    filepath.Join(dir, "fleet.snap"),
		SnapshotEvery:   time.Hour, // snapshots driven explicitly
		WALDir:          filepath.Join(dir, "wal"),
		WALFsync:        wal.FsyncAlways,
		WALSegmentBytes: 2048,
		Now:             clock.Now,
		Sleep:           napSleep,
	}
}

// TestReplicaServesReadsRejectsWrites covers the role split: a replica
// streams the primary's journal, serves every read endpoint from the
// replicated state, and refuses mutations with 503 + Retry-After, counting
// them on /metrics. /healthz reports role and replication lag on both
// sides.
func TestReplicaServesReadsRejectsWrites(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	net := &mapDoer{}

	pcfg := replConfig(t.TempDir(), clock)
	pcfg.Logf = t.Logf
	primary, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	net.bind("a", primary)

	rcfg := replConfig(t.TempDir(), clock)
	rcfg.Role = repl.RoleReplica
	rcfg.PrimaryAddr = "http://a"
	rcfg.ReplDoer = net
	rcfg.ReplPollInterval = time.Millisecond
	rcfg.Logf = t.Logf
	replica, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	code, out := call(t, primary, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	clock.Set(t0.Add(10 * time.Hour))
	code, out = call(t, primary, "POST", "/v1/db/1/login", "")
	wantStatus(t, code, http.StatusOK, out)

	waitUntil(t, "replica to apply the stream", func() bool {
		return bytes.Equal(archive(t, primary), archive(t, replica))
	})

	// Reads are served from the replicated state.
	code, out = call(t, replica, "GET", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["state"] != "resumed" {
		t.Fatalf("replica GET db 1 = %v", out)
	}
	code, out = call(t, replica, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)

	// Mutations are refused with 503 + Retry-After on every write route.
	writes := []struct{ method, path, body string }{
		{"POST", "/v1/db", `{"id":2}`},
		{"DELETE", "/v1/db/1", ""},
		{"POST", "/v1/db/1/login", ""},
		{"POST", "/v1/db/1/logout", ""},
		{"POST", "/v1/ops/resume", ""},
	}
	for _, wr := range writes {
		rec := httptest.NewRecorder()
		replica.ServeHTTP(rec, httptest.NewRequest(wr.method, wr.path, strings.NewReader(wr.body)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s on replica = %d, want 503 (%s)", wr.method, wr.path, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s on replica: no Retry-After header", wr.method, wr.path)
		}
	}
	// The rejected delete was not applied: the database is still served.
	code, out = call(t, replica, "GET", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)

	// /healthz reports the role split and the lag gauges.
	code, out = call(t, replica, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["role"] != "replica" {
		t.Fatalf("replica healthz role = %v", out["role"])
	}
	if _, ok := out["replication_lag_records"]; !ok {
		t.Fatalf("replica healthz has no replication_lag_records: %v", out)
	}
	if _, ok := out["replication_lag_seconds"]; !ok {
		t.Fatalf("replica healthz has no replication_lag_seconds: %v", out)
	}
	code, out = call(t, primary, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["role"] != "primary" {
		t.Fatalf("primary healthz role = %v", out["role"])
	}

	// The rejections and the role land on /metrics.
	samples := scrape(t, replica)
	if n := sampleValue(t, samples, "prorp_repl_writes_rejected_total", nil); n != float64(len(writes)) {
		t.Fatalf("writes_rejected = %v, want %d", n, len(writes))
	}
	if n := sampleValue(t, samples, "prorp_repl_role", nil); n != 0 {
		t.Fatalf("replica role gauge = %v, want 0", n)
	}
	if n := sampleValue(t, samples, "prorp_repl_lag_records", nil); n != 0 {
		t.Fatalf("caught-up replica lag gauge = %v, want 0", n)
	}
	if n := sampleValue(t, scrape(t, primary), "prorp_repl_role", nil); n != 1 {
		t.Fatalf("primary role gauge = %v, want 1", n)
	}
}

// TestFollowerConvergence is the convergence acceptance: a replica that
// joins after the primary compacted its journal resyncs from the snapshot
// endpoint, streams the tail, and lands byte-identical to the primary's
// archive.
func TestFollowerConvergence(t *testing.T) {
	clock := &fakeClock{t: t0}
	net := &mapDoer{}

	pcfg := replConfig(t.TempDir(), clock)
	pcfg.Logf = t.Logf
	primary, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	net.bind("a", primary)

	// Build real state: three databases, three days of 09:00–17:00
	// activity each — enough history for predictions, physical pauses, and
	// pending wakes to be part of the archived state.
	day := 24 * time.Hour
	for id := 1; id <= 3; id++ {
		clock.Set(t0.Add(time.Duration(id) * time.Minute))
		code, out := call(t, primary, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}
	for d := 0; d < 3; d++ {
		for id := 1; id <= 3; id++ {
			if d > 0 {
				clock.Set(t0.Add(time.Duration(d)*day + 9*time.Hour + time.Duration(id)*time.Minute))
				code, out := call(t, primary, "POST", fmt.Sprintf("/v1/db/%d/login", id), "")
				wantStatus(t, code, http.StatusOK, out)
			}
			clock.Set(t0.Add(time.Duration(d)*day + 17*time.Hour + time.Duration(id)*time.Minute))
			code, out := call(t, primary, "POST", fmt.Sprintf("/v1/db/%d/logout", id), "")
			wantStatus(t, code, http.StatusOK, out)
		}
	}

	// Snapshot now: the journal rotates and compacts below the boundary, so
	// a fresh replica's from-genesis cursor is below retained history and
	// its very first poll forces the 410 → snapshot-resync path.
	code, out := call(t, primary, "POST", "/v1/ops/snapshot", "")
	wantStatus(t, code, http.StatusOK, out)

	// Post-boundary tail the resynced replica must then stream.
	clock.Set(t0.Add(3*day + 9*time.Hour))
	code, out = call(t, primary, "POST", "/v1/db/1/login", "")
	wantStatus(t, code, http.StatusOK, out)

	rcfg := replConfig(t.TempDir(), clock)
	rcfg.Role = repl.RoleReplica
	rcfg.PrimaryAddr = "http://a"
	rcfg.ReplDoer = net
	rcfg.ReplPollInterval = time.Millisecond
	rcfg.Logf = t.Logf
	replica, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Byte equality can be observed between the fleet swap and the resync
	// counter increment, so the wait covers both.
	waitUntil(t, "replica to converge byte-identically", func() bool {
		return replica.followerRef().Stats().Resyncs >= 1 &&
			bytes.Equal(archive(t, primary), archive(t, replica))
	})

	// The convergence went through a snapshot resync, visibly on /metrics.
	samples := scrape(t, replica)
	if n := sampleValue(t, samples, "prorp_repl_follower_resyncs_total", nil); n < 1 {
		t.Fatalf("follower resyncs = %v, want >= 1", n)
	}

	// Replicated reads agree with the primary, state machine included.
	for id := 1; id <= 3; id++ {
		_, pout := call(t, primary, "GET", fmt.Sprintf("/v1/db/%d", id), "")
		_, rout := call(t, replica, "GET", fmt.Sprintf("/v1/db/%d", id), "")
		if pout["state"] != rout["state"] {
			t.Fatalf("db %d state: primary %v, replica %v", id, pout["state"], rout["state"])
		}
	}
}

// corruptingDoer flips one byte in every /v1/repl/snapshot response while
// armed — the in-flight version of the corrupt-archive cases the snapshot
// store tests cover on disk.
type corruptingDoer struct {
	inner   *mapDoer
	corrupt atomic.Bool
}

func (d *corruptingDoer) Do(req *http.Request) (*http.Response, error) {
	resp, err := d.inner.Do(req)
	if err != nil || !d.corrupt.Load() || !strings.HasSuffix(req.URL.Path, "/v1/repl/snapshot") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		body[len(body)-1] ^= 0x01
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// TestReplicaRejectsCorruptSnapshot is the negative convergence case: a
// resync whose snapshot container is damaged in flight must fail the
// checksum and leave the local fleet untouched — and succeed as soon as
// the corruption clears.
func TestReplicaRejectsCorruptSnapshot(t *testing.T) {
	clock := &fakeClock{t: t0}
	net := &mapDoer{}

	pcfg := replConfig(t.TempDir(), clock)
	pcfg.Logf = t.Logf
	primary, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	net.bind("a", primary)

	for id := 1; id <= 2; id++ {
		clock.Set(t0.Add(time.Duration(id) * time.Minute))
		code, out := call(t, primary, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}
	// Compact so the replica's only way in is the snapshot endpoint.
	code, out := call(t, primary, "POST", "/v1/ops/snapshot", "")
	wantStatus(t, code, http.StatusOK, out)

	cd := &corruptingDoer{inner: net}
	cd.corrupt.Store(true)

	rcfg := replConfig(t.TempDir(), clock)
	rcfg.Role = repl.RoleReplica
	rcfg.PrimaryAddr = "http://a"
	rcfg.ReplDoer = cd
	rcfg.ReplPollInterval = time.Millisecond
	replica, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Resync attempts keep failing the container checksum; none adopts.
	waitUntil(t, "corrupt resyncs to be refused", func() bool {
		return replica.followerRef().Stats().StreamErrors >= 3
	})
	if got := replica.followerRef().Stats().Resyncs; got != 0 {
		t.Fatalf("resyncs completed against a corrupt snapshot: %d", got)
	}
	if got := replica.Fleet().Size(); got != 0 {
		t.Fatalf("replica adopted corrupt state: %d databases", got)
	}
	code, out = call(t, replica, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, out)
	if _, ok := out["replication_last_error"]; !ok {
		t.Fatalf("healthz hides the failing resync: %v", out)
	}

	// Corruption clears; the very same follower converges.
	cd.corrupt.Store(false)
	waitUntil(t, "replica to converge after the corruption clears", func() bool {
		return replica.followerRef().Stats().Resyncs >= 1 &&
			bytes.Equal(archive(t, primary), archive(t, replica))
	})
}

// TestPromoteAndFencing walks the failover control plane: promote is
// idempotent on a live primary, turns a replica into the primary of a new
// epoch, the fence endpoint closes the old primary's split-brain window,
// and fencing survives a restart via the repl-state file.
func TestPromoteAndFencing(t *testing.T) {
	clock := &fakeClock{t: t0}
	net := &mapDoer{}

	acfg := replConfig(t.TempDir(), clock)
	acfg.Logf = t.Logf
	a, err := New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	net.bind("a", a)

	bcfg := replConfig(t.TempDir(), clock)
	bcfg.Role = repl.RoleReplica
	bcfg.PrimaryAddr = "http://a"
	bcfg.ReplDoer = net
	bcfg.ReplPollInterval = time.Millisecond
	bcfg.Logf = t.Logf
	b, err := New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	code, out := call(t, a, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	waitUntil(t, "replica to catch up", func() bool {
		return bytes.Equal(archive(t, a), archive(t, b))
	})

	// Promote on a live primary is a no-op report, not a new epoch.
	code, out = call(t, a, "POST", "/v1/repl/promote", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["promoted"] != false || out["epoch"] != float64(1) {
		t.Fatalf("promote on live primary = %v", out)
	}

	// Promote the replica: epoch 2, and it acknowledges writes.
	code, out = call(t, b, "POST", "/v1/repl/promote", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["promoted"] != true || out["epoch"] != float64(2) || out["role"] != "primary" {
		t.Fatalf("promote on replica = %v", out)
	}
	code, out = call(t, b, "POST", "/v1/db", `{"id":2}`)
	wantStatus(t, code, http.StatusCreated, out)

	// The old primary hasn't heard of epoch 2 and would still ack writes;
	// the fence endpoint closes that window.
	code, out = call(t, a, "POST", "/v1/repl/fence", `{"epoch":0}`)
	wantStatus(t, code, http.StatusBadRequest, out)
	code, out = call(t, a, "POST", "/v1/repl/fence", `{"epoch":2}`)
	wantStatus(t, code, http.StatusOK, out)
	if out["fenced"] != true || out["epoch"] != float64(2) {
		t.Fatalf("fence = %v", out)
	}
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/db", strings.NewReader(`{"id":3}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write on fenced primary = %d, want 503", rec.Code)
	}
	// A fenced ex-primary that follows nobody is a zombie: it can neither
	// accept writes nor converge, so /healthz reports it unhealthy until
	// failover re-attaches it to the new primary.
	code, out = call(t, a, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusServiceUnavailable, out)
	if out["fenced"] != true || out["role"] != "primary" || out["status"] != "fenced" {
		t.Fatalf("fenced primary healthz = %v", out)
	}

	// A fenced ex-primary still serves the stream: that is how a follower
	// of the new epoch drains its acknowledged tail.
	rec = httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/repl/stream?after=0:0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream on fenced primary = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get(repl.HeaderEpoch); got != "2" {
		t.Fatalf("fenced primary stream epoch header = %q, want 2", got)
	}

	// Fencing survives a restart: the repl-state file carries it, so the
	// reboot cannot quietly un-demote the node.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2, err := New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if got := a2.Node().Epoch(); got != 2 {
		t.Fatalf("rebooted ex-primary epoch = %d, want 2", got)
	}
	rec = httptest.NewRecorder()
	a2.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/db", strings.NewReader(`{"id":3}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write on rebooted fenced primary = %d, want 503", rec.Code)
	}
	code, out = call(t, a2, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusServiceUnavailable, out)
	if out["fenced"] != true || out["status"] != "fenced" {
		t.Fatalf("rebooted ex-primary healthz = %v", out)
	}
}
