package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"prorp/internal/repl"
)

// TestQuorumAckTimeout covers -quorum-acks' refusal path: with K=1 and no
// replica attached, a write journals and applies locally but its ack is
// REFUSED with 503 + Retry-After — never silently downgraded to an async
// ack — and the timeout counts on /metrics. Once a replica's polls cover
// the journal, the same write mode acks normally.
func TestQuorumAckTimeout(t *testing.T) {
	clock := &fakeClock{t: t0}
	net := &mapDoer{}

	pcfg := replConfig(t.TempDir(), clock)
	pcfg.QuorumAcks = 1
	pcfg.NodeID = "a" // quorum mode refuses the shared default id
	// Wall-clock by design: quorum is a liveness SLA on real replicas, so
	// it must not hang off the injected test clock.
	pcfg.QuorumTimeout = 40 * time.Millisecond
	p, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	net.bind("a", p)

	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/db", strings.NewReader(`{"id":1}`)))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("unreplicated quorum write = %d (Retry-After %q), want 503 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if body := rec.Body.String(); !strings.Contains(body, "quorum") || !strings.Contains(body, "0 replica(s) known") {
		t.Fatalf("refusal does not explain itself: %s", body)
	}
	// The 503 means "unacknowledged under the replication contract", not
	// "rolled back": the record is in the journal and applied locally, and
	// may surface again at replay — exactly like a kill between fsync and
	// response.
	if _, err := p.Fleet().State(1); err != nil {
		t.Fatalf("refused ack rolled back the journaled create: %v", err)
	}
	mrec := httptest.NewRecorder()
	p.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "prorp_repl_quorum_timeouts_total 1") {
		t.Fatal("quorum timeout not counted on /metrics")
	}

	// A replica attaches; its polls are the quorum now.
	rcfg := replConfig(t.TempDir(), clock)
	rcfg.Role = repl.RoleReplica
	rcfg.PrimaryAddr = "http://a"
	rcfg.ReplDoer = net
	rcfg.ReplPollInterval = time.Millisecond
	rcfg.NodeID = "r1"
	r, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id := 1
	waitUntil(t, "quorum-acked writes to ack once the replica covers them", func() bool {
		id++
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/db",
			strings.NewReader(fmt.Sprintf(`{"id":%d}`, id))))
		return rec.Code == http.StatusCreated
	})
}

// TestQuorumRequiresNodeIdentity pins the config guard: quorum-acked mode
// with neither NodeID nor SelfAddr refuses to boot, because replicas
// falling back to the shared "node" default collapse into one entry in
// the coverage map and a K>=2 quorum then times out every write.
func TestQuorumRequiresNodeIdentity(t *testing.T) {
	cfg := replConfig(t.TempDir(), &fakeClock{t: t0})
	cfg.QuorumAcks = 2
	cfg.NodeID, cfg.SelfAddr = "", ""
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "identity") {
		t.Fatalf("quorum mode booted without a node identity: %v", err)
	}
	// Either identity field satisfies the guard (NodeID defaults to SelfAddr).
	cfg.SelfAddr = "http://a"
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("SelfAddr alone refused: %v", err)
	}
	s.Close()
}

// TestReplStateLeaseRoundTrip pins the PRR1 lease field: a renewed lease
// persists its expiry instant, a reboot inside the grant restores it
// (instead of instantly campaigning against a primary that was alive
// moments ago), and a malformed or short file refuses the boot.
func TestReplStateLeaseRoundTrip(t *testing.T) {
	clock := &fakeClock{t: t0}
	dir := t.TempDir()
	cfg := replConfig(dir, clock)
	cfg.Role = repl.RoleReplica
	cfg.PrimaryAddr = "http://nowhere"
	cfg.ReplDoer = &mapDoer{} // nothing bound: the follower polls fail fast
	cfg.LeaseTTL = 10 * time.Second
	cfg.ElectionTimeout = time.Hour // the manual clock never advances; no campaigns
	cfg.SelfAddr = "http://self"
	cfg.NodeID = "self"
	cfg.ReplPeers = map[string]string{"peer": "http://peer"}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A node that never heard from a primary boots with an expired lease.
	if !s.lease.Expired(clock.Now()) {
		t.Fatal("fresh boot got a live lease")
	}
	s.lease.Renew(1, 0)
	if err := s.persistReplState(s.loadCursor(), true); err != nil {
		t.Fatal(err)
	}
	s.Close()

	data, err := os.ReadFile(replStatePath(cfg.WALDir))
	if err != nil {
		t.Fatal(err)
	}
	var epoch uint64
	var fenced int
	var cur string
	var leaseMs int64
	var lineage uint64
	if n, _ := fmt.Sscanf(string(data), "PRR1 %d %d %s %d %d", &epoch, &fenced, &cur, &leaseMs, &lineage); n != 5 {
		t.Fatalf("repl-state %q did not persist the lease and lineage fields", data)
	}
	if want := t0.Add(10 * time.Second).UnixMilli(); leaseMs != want {
		t.Fatalf("persisted lease expiry %d, want %d", leaseMs, want)
	}

	// Reboot inside the grant: the lease is alive until the persisted
	// instant, no longer.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.lease.Expired(clock.Now()) {
		t.Fatal("reboot discarded an unexpired lease")
	}
	if got, want := s2.lease.Until(), t0.Add(10*time.Second); !got.Equal(want) {
		t.Fatalf("restored lease until %v, want %v", got, want)
	}
	s2.Close()

	// Guessing at fencing state is how split brain happens: a malformed
	// file refuses the boot, and so does one short of the five fields every
	// build has written — zeroing a missing lease or lineage would be a
	// guess.
	for name, content := range map[string]string{
		"garbage":      "PRR1 what\n",
		"three fields": "PRR1 7 0 0:0\n",
		"four fields":  "PRR1 7 0 2:64 0\n",
		"bad cursor":   "PRR1 7 0 nonsense 0 7\n",
	} {
		if err := os.WriteFile(replStatePath(cfg.WALDir), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if srv, err := New(cfg); err == nil {
			srv.Close()
			t.Fatalf("%s repl-state %q booted", name, content)
		}
	}
}
