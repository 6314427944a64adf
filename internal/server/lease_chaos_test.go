package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prorp/internal/faults"
	"prorp/internal/repl"
	"prorp/internal/wal"
)

// TestChaosLeaseElection is the self-healing failover acceptance gate: 50
// seeded iterations of a three-node cluster (A primary, B and C replicas)
// under a hostile transport — partitions, response bodies cut mid-flight,
// bit flips — in which the primary is killed and NO human promotes
// anything. The cluster must notice on its own (lease lapse), elect on its
// own (randomized timeouts, highest-cursor candidate wins), converge on
// its own, and re-capture the rebooted ex-primary on its own. Invariants,
// every iteration:
//
//   - Zero acked-write loss with -quorum-acks=1: every write the dead
//     primary acknowledged waited for a replica's journal to cover it, and
//     the elected winner provably holds every granting voter's records —
//     so each acked event must exist, at its server-assigned time, on the
//     new primary.
//   - Exactly one unfenced primary at quiesce, with the loser following it
//     and byte-identical to it.
//   - The rebooted ex-primary fences itself off the winner's announces,
//     auto-demotes into a follower (snapshot resync — its journal is a
//     different lineage), converges byte-identically, and its /healthz
//     flips from 503 ("fenced" zombie) to 200 with effective_role=replica.
//   - No epoch moved except by a candidacy that won its pre-vote.
//
// Runs under -race in CI (make lease-chaos). On failure, each node's
// on-disk debris (WAL segments, repl-state, snapshots) is copied to
// $PRORP_CHAOS_DEBRIS/<test-name> for the workflow to upload.
func TestChaosLeaseElection(t *testing.T) {
	eachChaosSeed(t, chaosLeaseElection)
}

// saveDebris copies each node's durable state into $PRORP_CHAOS_DEBRIS
// when the test failed, so CI can attach the exact WAL segments,
// repl-state files, and snapshots behind a failing seed to the run.
func saveDebris(t *testing.T, dirs map[string]string) {
	t.Cleanup(func() {
		root := os.Getenv("PRORP_CHAOS_DEBRIS")
		if root == "" || !t.Failed() {
			return
		}
		for node, dir := range dirs {
			dst := filepath.Join(root, strings.ReplaceAll(t.Name(), "/", "_"), node)
			if err := copyTree(dir, dst); err != nil {
				t.Logf("saving debris for %s: %v", node, err)
			}
		}
		t.Logf("chaos debris saved under %s", root)
	})
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		_, cerr := io.Copy(out, in)
		if err := out.Close(); cerr == nil {
			cerr = err
		}
		return cerr
	})
}

// leaseConfig layers the self-healing failover knobs on a replConfig:
// manual-clock lease/election timing (the stepClock drives lapses), a
// quorum of one replica ack per write, and a per-node election seed so a
// failing iteration replays identically.
func leaseConfig(dir string, clock *stepClock, self string, peers map[string]string, seed int64) Config {
	cfg := replConfig(dir, clock)
	cfg.WALSegmentBytes = 1024 // tiny segments: rotations mid-stream
	cfg.LeaseTTL = 10 * time.Second
	cfg.ElectionTimeout = 5 * time.Second
	cfg.ElectionSeed = seed
	cfg.QuorumAcks = 1
	cfg.QuorumTimeout = 30 * time.Second // wall-clock: polls land every ~1ms here
	cfg.SelfAddr = "http://" + self
	cfg.NodeID = self
	cfg.ReplPeers = peers
	return cfg
}

func chaosLeaseElection(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	inj := faults.NewInjector(seed)
	clock := &stepClock{t: t0}
	net := &mapDoer{}
	faultNet := faults.NewFaultDoer(net, inj, funcClock{now: clock.Now, sleep: noSleep})

	dirs := map[string]string{"a": t.TempDir(), "b": t.TempDir(), "c": t.TempDir()}
	saveDebris(t, dirs)

	peersOf := func(self string) map[string]string {
		m := make(map[string]string)
		for _, n := range []string{"a", "b", "c"} {
			if n != self {
				m[n] = "http://" + n
			}
		}
		return m
	}

	acfg := leaseConfig(dirs["a"], clock, "a", peersOf("a"), seed*3+1)
	acfg.Logf = func(f string, v ...any) { t.Logf("[a] "+f, v...) }
	acfg.ReplDoer = faultNet
	a, err := New(acfg)
	if err != nil {
		t.Fatalf("boot primary: %v", err)
	}
	net.bind("a", a)

	// Replication and election traffic is hostile from the first poll.
	inj.FailProb("http.request", 0.2*rng.Float64(), fmt.Errorf("chaos: partitioned"))
	inj.PartialWrites("http.body", 0.25*rng.Float64())
	inj.CorruptWrites("http.body", 0.25*rng.Float64())

	replicas := make(map[string]*Server)
	for i, name := range []string{"b", "c"} {
		cfg := leaseConfig(dirs[name], clock, name, peersOf(name), seed*3+2+int64(i))
		nm := name
		cfg.Logf = func(f string, v ...any) { t.Logf("["+nm+"] "+f, v...) }
		cfg.Role = repl.RoleReplica
		cfg.PrimaryAddr = "http://a"
		cfg.ReplDoer = faultNet
		cfg.ReplPollInterval = time.Millisecond
		cfg.ReplMaxBatchBytes = int(wal.FrameSize) * (1 + rng.Intn(8))
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("boot replica %s: %v", name, err)
		}
		replicas[name] = s
		net.bind(name, s)
		defer s.Close()
	}
	b, c := replicas["b"], replicas["c"]

	// Phase 1 — quorum-acked traffic into the primary. Every 2xx waited
	// for a replica's journal to cover the record, so every acked write
	// below is covered by the zero-loss invariant across the failover.
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
	for i := 10 + rng.Intn(20); i > 0; i-- {
		event(a)
	}

	// Sometimes compact the primary mid-run: a replica's cursor falls
	// below retained history and it must snapshot-resync under fire.
	if rng.Intn(2) == 0 {
		fire(a, "POST", "/v1/ops/snapshot", "")
		for i := 0; i < 3; i++ {
			event(a)
		}
	}

	// Both replicas converge before the kill; with -quorum-acks=1 the
	// invariant only needs ONE of them per record, but a quiesced cluster
	// makes the byte-equality oracle exact.
	waitUntil(t, "replicas to converge before the kill", func() bool {
		aa := archive(t, a)
		return bytes.Equal(aa, archive(t, b)) && bytes.Equal(aa, archive(t, c))
	})

	// Kill the primary — no drain, no final snapshot — and take its
	// address off the network. NOBODY calls /v1/repl/promote from here:
	// detection and recovery are the cluster's problem.
	net.bind("a", nil)
	a.Kill()

	// Step the logical clock until the leases lapse, the randomized
	// election timeouts fire, and a candidate collects a majority.
	waitUntil(t, "a replica to elect itself", func() bool {
		clock.Step()
		return b.Node().CanAcceptWrites() || c.Node().CanAcceptWrites()
	})
	winner, loser := b, c
	if c.Node().CanAcceptWrites() {
		winner, loser = c, b
	}
	if winner.Node().Epoch() < 2 {
		t.Fatalf("winner epoch = %d, want >= 2 (election must fence epoch 1)", winner.Node().Epoch())
	}

	// Zero acked-write loss: the winner needed a majority, so it holds at
	// least every record any granting voter's journal covered — which,
	// with quorum acks, is every acked record.
	for id := 1; id <= dbs; id++ {
		if _, err := winner.Fleet().State(id); err != nil {
			t.Fatalf("database %d lost across the election: %v", id, err)
		}
	}
	assertAcked(t, winner, acked)

	// The loser hears the winner's announces, repoints its follower
	// (forcing a snapshot resync — the winner's journal is a different
	// lineage), and converges byte-identically.
	waitUntil(t, "the loser to follow the winner and converge", func() bool {
		clock.Step()
		return !loser.Node().CanAcceptWrites() &&
			bytes.Equal(archive(t, winner), archive(t, loser))
	})

	// The new primary acknowledges quorum-acked writes of its own — the
	// loser's polls are the quorum now.
	clock.Step()
	code, out := call(t, winner, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, 100+dbs))
	wantStatus(t, code, http.StatusCreated, out)
	for i := 0; i < 5; i++ {
		event(winner)
	}

	// Reboot the dead ex-primary from its own disks, UNCHANGED config:
	// role primary, epoch 1, unfenced. The winner's announces must fence
	// it and auto-demote it into a follower — no operator, no /v1/repl
	// calls. Until it re-attaches, /healthz reports the zombie unhealthy.
	a2, err := New(acfg)
	if err != nil {
		t.Fatalf("reboot ex-primary: %v", err)
	}
	defer a2.Close()
	net.bind("a", a2)

	waitUntil(t, "the rebooted ex-primary to fence, re-attach, and converge", func() bool {
		clock.Step()
		return a2.Node().Fenced() && a2.followerRef() != nil &&
			bytes.Equal(archive(t, winner), archive(t, a2))
	})
	assertAcked(t, a2, acked)

	// Its /healthz now reports replica-equivalent readiness: fenced, but
	// following the new primary — not the 503 zombie answer.
	code, out = call(t, a2, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["fenced"] != true || out["effective_role"] != "replica" {
		t.Fatalf("re-attached ex-primary healthz = %v", out)
	}

	// Writes on it still bounce: fenced is forever within an epoch.
	rec := httptest.NewRecorder()
	a2.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/db", strings.NewReader(`{"id":999}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write on fenced ex-primary = %d, want 503", rec.Code)
	}

	// Quiesce invariant: exactly one unfenced primary in the cluster.
	primaries := 0
	for _, s := range []*Server{winner, loser, a2} {
		if s.Node().CanAcceptWrites() {
			primaries++
		}
	}
	if primaries != 1 {
		t.Fatalf("unfenced primaries at quiesce = %d, want exactly 1", primaries)
	}

	// Every epoch step is a real candidacy that first won a pre-vote: a
	// pre-vote round moves no epoch, so past genesis there are at most as
	// many epochs as candidacies stood.
	final, campaigns := uint64(0), uint64(0)
	for _, s := range []*Server{winner, loser, a2} {
		final = max(final, s.Node().Epoch())
		campaigns += s.elect.Stats().Campaigns
	}
	t.Logf("final epoch %d after %d candidacies", final, campaigns)
	if final-1 > campaigns {
		t.Fatalf("final epoch %d after only %d candidacies: an epoch moved without one", final, campaigns)
	}
}
