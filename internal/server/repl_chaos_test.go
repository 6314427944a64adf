package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prorp/internal/faults"
	"prorp/internal/repl"
	"prorp/internal/wal"
)

// ackedWrite is one event a primary acknowledged with HTTP 200; after
// failover it must exist, at its server-assigned time, on every node that
// claims convergence.
type ackedWrite struct {
	id    int
	unix  int64
	login bool
}

// assertAcked audits that every acknowledged event is present in a node's
// rebuilt activity history.
func assertAcked(t *testing.T, s *Server, acked []ackedWrite) {
	t.Helper()
	hist := make(map[int]map[int64]bool)
	for _, ev := range acked {
		m, ok := hist[ev.id]
		if !ok {
			h, err := s.Fleet().History(ev.id)
			if err != nil {
				t.Fatalf("history of %d: %v", ev.id, err)
			}
			m = make(map[int64]bool, len(h))
			for _, e := range h {
				m[e.Time.Unix()] = e.Login
			}
			hist[ev.id] = m
		}
		got, ok := m[ev.unix]
		if !ok || got != ev.login {
			t.Fatalf("acked event on db %d (unix %d, login=%v) missing after failover", ev.id, ev.unix, ev.login)
		}
	}
}

// TestChaosReplFailover is the replication acceptance gate: 50 seeded
// iterations of a primary/replica pair whose stream transport misbehaves
// (partitions, response bodies cut mid-flight — often exactly on a frame
// boundary — and bit flips), each iteration ending in kill-primary,
// promote-replica, write-through-the-new-primary, and a reboot of the old
// primary as a replica of the new epoch. Invariants, every iteration:
//
//   - Zero acked-write loss: every create and event acknowledged before
//     the kill is present on the promoted replica. The pair converges
//     before the kill — replication is asynchronous, so the contract
//     covers replicated acks, and the lag gauges bound the rest.
//   - Convergence is byte-exact: the rebooted old primary re-enters as a
//     follower (force-resyncing off the new primary's snapshot, since its
//     local state predates any stream cursor) and its archive becomes
//     byte-identical to the new primary's.
//
// Runs under -race in CI (make repl-chaos).
func TestChaosReplFailover(t *testing.T) {
	eachChaosSeed(t, chaosReplFailover)
}

func chaosReplFailover(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	inj := faults.NewInjector(seed)
	clock := &stepClock{t: t0}
	net := &mapDoer{}
	faultNet := faults.NewFaultDoer(net, inj, funcClock{now: clock.Now, sleep: noSleep})

	acfg := replConfig(t.TempDir(), clock)
	acfg.WALSegmentBytes = 1024 // tiny segments: rotations mid-stream
	a, err := New(acfg)
	if err != nil {
		t.Fatalf("boot primary: %v", err)
	}
	net.bind("a", a)

	// The replica's transport is hostile from its first poll.
	inj.FailProb("http.request", 0.2*rng.Float64(), fmt.Errorf("chaos: partitioned"))
	inj.PartialWrites("http.body", 0.25*rng.Float64())
	inj.CorruptWrites("http.body", 0.25*rng.Float64())

	bcfg := replConfig(t.TempDir(), clock)
	bcfg.WALSegmentBytes = 1024
	bcfg.Role = repl.RoleReplica
	bcfg.PrimaryAddr = "http://a"
	bcfg.ReplDoer = faultNet
	bcfg.ReplPollInterval = time.Millisecond
	bcfg.ReplMaxBatchBytes = int(wal.FrameSize) * (1 + rng.Intn(8)) // tiny batches
	b, err := New(bcfg)
	if err != nil {
		t.Fatalf("boot replica: %v", err)
	}
	defer b.Close()

	// Phase 1 — acked traffic into the primary; every 2xx is covered by
	// the zero-loss invariant. Alternation per database keeps the event
	// stream legal (a fresh database starts active, so logout leads).
	dbs := 2 + rng.Intn(3)
	for id := 1; id <= dbs; id++ {
		clock.Step()
		code, out := call(t, a, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}
	var acked []ackedWrite
	nextLogin := make([]bool, dbs+1)
	event := func(s *Server) {
		id := 1 + rng.Intn(dbs)
		clock.Step()
		verb := "logout"
		if nextLogin[id] {
			verb = "login"
		}
		code, out := call(t, s, "POST", fmt.Sprintf("/v1/db/%d/%s", id, verb), "")
		wantStatus(t, code, http.StatusOK, out)
		at, err := time.Parse(time.RFC3339, out["at"].(string))
		if err != nil {
			t.Fatalf("bad event time %v: %v", out["at"], err)
		}
		acked = append(acked, ackedWrite{id: id, unix: at.Unix(), login: nextLogin[id]})
		nextLogin[id] = !nextLogin[id]
	}
	for i := 10 + rng.Intn(30); i > 0; i-- {
		event(a)
	}

	// Sometimes compact the primary mid-run: the replica's cursor falls
	// below retained history and it must resync from the snapshot endpoint
	// over the same hostile transport.
	if rng.Intn(2) == 0 {
		fire(a, "POST", "/v1/ops/snapshot", "")
		for i := 0; i < 3; i++ {
			event(a)
		}
	}

	// Convergence before the kill, under fire the whole way.
	waitUntil(t, "replica to converge before the kill", func() bool {
		return bytes.Equal(archive(t, a), archive(t, b))
	})

	// Kill the primary — no drain, no final snapshot — and take its
	// address off the network.
	net.bind("a", nil)
	a.Kill()

	// Promote the replica; B is the primary of epoch 2 from here.
	code, out := call(t, b, "POST", "/v1/repl/promote", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["promoted"] != true {
		t.Fatalf("promote = %v", out)
	}
	net.bind("b", b)

	// Zero acked-write loss across the failover.
	for id := 1; id <= dbs; id++ {
		if _, err := b.Fleet().State(id); err != nil {
			t.Fatalf("database %d lost across failover: %v", id, err)
		}
	}
	assertAcked(t, b, acked)

	// The new primary acknowledges writes of its own.
	clock.Step()
	code, out = call(t, b, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, 100+dbs))
	wantStatus(t, code, http.StatusCreated, out)
	for i := 0; i < 5; i++ {
		event(b)
	}

	// Reboot the old primary from its own disks as a replica of the new
	// one: it replays its own journal, then — because that state predates
	// any stream cursor — force-resyncs from the new primary's snapshot,
	// adopts epoch 2 off the stream, and tails the rest.
	a2cfg := acfg
	a2cfg.Role = repl.RoleReplica
	a2cfg.PrimaryAddr = "http://b"
	a2cfg.ReplDoer = faultNet
	a2cfg.ReplPollInterval = time.Millisecond
	a2cfg.ReplMaxBatchBytes = bcfg.ReplMaxBatchBytes
	a2, err := New(a2cfg)
	if err != nil {
		t.Fatalf("reboot old primary as replica: %v", err)
	}
	defer a2.Close()
	net.bind("a", a2)

	deadline := time.Now().Add(120 * time.Second)
	for {
		if a2.Node().Epoch() >= 2 && bytes.Equal(archive(t, b), archive(t, a2)) {
			break
		}
		if time.Now().After(deadline) {
			ba, aa := archive(t, b), archive(t, a2)
			st := a2.followerRef().Stats()
			t.Fatalf("old primary did not converge: epoch=%d cursor=%s stats=%+v lastErr=%q archB=%d archA2=%d equal=%v",
				a2.Node().Epoch(), a2.followerRef().Cursor(), st, a2.followerRef().LastError(), len(ba), len(aa), bytes.Equal(ba, aa))
		}
		time.Sleep(2 * time.Millisecond)
	}
	assertAcked(t, a2, acked)

	// The rebooted node is a replica now: writes bounce with Retry-After.
	rec := httptest.NewRecorder()
	a2.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/db", strings.NewReader(`{"id":999}`)))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("write on rebooted replica = %d (Retry-After %q), want 503", rec.Code, rec.Header().Get("Retry-After"))
	}
}
