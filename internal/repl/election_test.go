package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prorp/internal/wal"
)

var et0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

// manualClock is a hand-stepped clock: Now moves only via Step.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Step(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (c *manualClock) Sleep(time.Duration) {}

// TestLeaseEpochBoundaries is the lease state table: expiry is pure
// clock arithmetic, and epoch boundaries decide whose contact counts.
func TestLeaseEpochBoundaries(t *testing.T) {
	clock := &manualClock{t: et0}
	l := NewLease(clock, 10*time.Second)
	if l.TTL() != 10*time.Second {
		t.Fatalf("TTL = %v", l.TTL())
	}
	// A fresh lease starts expired: the holder has never heard from a
	// primary, so it is immediately allowed to suspect one is missing.
	if !l.Expired(clock.Now()) {
		t.Fatal("fresh lease must start expired")
	}
	// ttl <= 0 means "no override": the configured TTL applies.
	if !l.Renew(1, 0) {
		t.Fatal("first renewal refused")
	}
	if l.Expired(clock.Now()) || l.Remaining(clock.Now()) != 10*time.Second {
		t.Fatalf("after renewal: expired=%v remaining=%v", l.Expired(clock.Now()), l.Remaining(clock.Now()))
	}
	// Expiry is exclusive of the boundary instant and inclusive after it.
	clock.Step(10 * time.Second)
	if l.Expired(clock.Now()) {
		t.Fatal("lease expired exactly at its boundary")
	}
	clock.Step(time.Nanosecond)
	if !l.Expired(clock.Now()) {
		t.Fatal("lease alive past its boundary")
	}

	// A higher epoch takes the lease over; a lower one is ignored no
	// matter how generous its grant — a stale primary on the wrong side
	// of a healed partition cannot extend its own reign.
	if !l.Renew(3, 0) {
		t.Fatal("higher epoch refused")
	}
	if l.Renew(2, time.Hour) {
		t.Fatal("stale epoch renewed the lease")
	}
	if got := l.Remaining(clock.Now()); got != 10*time.Second {
		t.Fatalf("stale renewal moved the expiry: remaining %v", got)
	}
	// The same epoch extends freely.
	clock.Step(5 * time.Second)
	l.Renew(3, 0)
	if got := l.Remaining(clock.Now()); got != 10*time.Second {
		t.Fatalf("same-epoch renewal: remaining %v", got)
	}
	// A shorter grant at a higher epoch adopts the epoch but never pulls
	// the expiry backward.
	if !l.Renew(4, time.Second) || l.Renew(3, time.Hour) {
		t.Fatal("a higher epoch with a short ttl did not take the lease over")
	}
	if got := l.Remaining(clock.Now()); got != 10*time.Second {
		t.Fatalf("short grant shrank the lease: remaining %v", got)
	}
	if l.Renewals() != 4 {
		t.Fatalf("renewals = %d, want 4 (the stale-epoch attempt must not count)", l.Renewals())
	}

	// RestoreUntil rebuilds a persisted lease at boot: alive inside the
	// old grant, expired past it, and owned by the persisted epoch.
	l2 := NewLease(clock, 10*time.Second)
	l2.RestoreUntil(7, clock.Now().Add(3*time.Second))
	if l2.Expired(clock.Now()) {
		t.Fatal("restored lease expired inside its persisted grant")
	}
	if l2.Renew(6, 0) {
		t.Fatal("restored lease renewed by a pre-restore epoch")
	}
	clock.Step(3*time.Second + time.Nanosecond)
	if !l2.Expired(clock.Now()) {
		t.Fatal("restored lease outlived its persisted expiry")
	}
}

// vcfg is the voter in the vote tables: v, in a cluster with b and c.
var vcfg = Config{ID: "v", Addr: "http://v", Peers: []string{"b", "c"}}

// ask hands the voter in state s, at position mine and with its lease
// lapsed, one vote request.
func ask(s State, mine Position, m Message) (State, Output) {
	return Step(vcfg, s, et0, Input{Kind: KindVote, Msg: m, Pos: mine,
		Lease: et0.Add(-time.Second), Jitter: 5 * time.Second})
}

func pos(lineage uint64, off int64) Position {
	return Position{Lineage: lineage, Cursor: wal.Cursor{Seg: 1, Off: off}}
}

// TestHandleVote is the voter-side table, on Step: epoch and position
// rules, one durable grant per epoch, pre-votes that change nothing, and
// fencing a primary that votes.
func TestHandleVote(t *testing.T) {
	c5, c9 := pos(1, 5), pos(1, 9)
	rep := State{Role: RoleReplica, Epoch: 3, Vote: "a", Leader: "http://a"}

	// Epoch not beyond ours, and our vote in it is spent: refused, nothing
	// adopted.
	if n, out := ask(rep, c5, Message{From: "b", Round: 3, Pos: c9}); out.Reply.Granted || n != rep || out.Persist {
		t.Fatalf("same-epoch vote: %+v", out.Reply)
	}
	// A candidate behind our position is refused WITHOUT adopting its
	// epoch: we may still grant that epoch to a better-placed candidate.
	if n, out := ask(rep, c9, Message{From: "b", Round: 4, Pos: c5}); out.Reply.Granted || n.Epoch != 3 {
		t.Fatalf("behind-position refusal adopted the epoch: %+v epoch=%d", out.Reply, n.Epoch)
	}
	// An equal position is granted: epoch and vote adopted, durably, and
	// our own deadline pushed a full timeout out.
	n, out := ask(rep, c9, Message{From: "b", Round: 4, Pos: c9})
	if !out.Reply.Granted || out.Reply.Epoch != 4 || n.Vote != "b" || !out.Persist || !n.ElectAt.Equal(et0.Add(5*time.Second)) {
		t.Fatalf("equal-position candidate: %+v, state %+v", out.Reply, n)
	}
	// One grant per epoch: nobody else gets epoch 4 — the same candidate
	// asking again (a duplicated request) gets the same answer, and
	// nothing new to persist.
	if _, out := ask(n, c9, Message{From: "c", Round: 4, Pos: c9}); out.Reply.Granted {
		t.Fatalf("epoch 4 granted twice: %+v", out.Reply)
	}
	if _, out := ask(n, c9, Message{From: "b", Round: 4, Pos: c9}); !out.Reply.Granted || out.Persist {
		t.Fatalf("duplicate request: %+v persist=%v", out.Reply, out.Persist)
	}
	// Learning of an epoch (on the stream, say) is not voting in it.
	learned, _ := Step(vcfg, rep, et0, Input{Kind: KindEpoch, Msg: Message{Epoch: 4}})
	if learned.Epoch != 4 || learned.Vote != "" {
		t.Fatalf("learned epoch: %+v", learned)
	}
	if _, out := ask(learned, c9, Message{From: "c", Round: 4, Pos: c9}); !out.Reply.Granted {
		t.Fatalf("an epoch seen on the stream blocked the vote: %+v", out.Reply)
	}

	// A refusal from the primary names it, so a refused candidate can
	// repoint its follower; a replica's refusal names nobody.
	p := State{Role: RolePrimary, Epoch: 4, Vote: "v", Leader: "http://v"}
	if _, out := ask(p, c9, Message{From: "b", Round: 4, Pos: c9}); out.Reply.Granted || out.Reply.Addr != "http://v" {
		t.Fatalf("primary's refusal: %+v", out.Reply)
	}
	if _, out := ask(rep, c9, Message{From: "b", Round: 3, Pos: c9}); out.Reply.Addr != "" {
		t.Fatalf("replica's refusal names %q", out.Reply.Addr)
	}

	// An unfenced primary asked to vote for a valid successor grants — and
	// the grant fences it.
	p1 := State{Role: RolePrimary, Epoch: 1, Vote: "v", Leader: "http://v"}
	if n, out := ask(p1, c5, Message{From: "b", Round: 2, Pos: c5}); !out.Reply.Granted || n.Leads() || !n.Fenced || n.Leader != "" {
		t.Fatalf("primary voting for a successor: %+v, state %+v", out.Reply, n)
	}

	// Pre-votes: granted only while our own lease has lapsed and we are not
	// the primary, and they change nothing at all.
	pre := Message{From: "b", Round: 4, PreVote: true, Pos: c9}
	if n, out := ask(rep, c9, pre); !out.Reply.Granted || n != rep || out.Persist {
		t.Fatalf("pre-vote with a lapsed lease: %+v, state changed %v", out.Reply, n != rep)
	}
	live := Input{Kind: KindVote, Msg: pre, Pos: c9, Lease: et0.Add(time.Second)}
	if _, out := Step(vcfg, rep, et0, live); out.Reply.Granted {
		t.Fatalf("pre-vote granted under a live lease: %+v", out.Reply)
	}
	if _, out := ask(p1, c9, Message{From: "b", Round: 2, PreVote: true, Pos: c9}); out.Reply.Granted {
		t.Fatalf("the primary granted a pre-vote: %+v", out.Reply)
	}

	// A grant that cannot be persisted is not a grant: the driver drops
	// the step, and the node shows nothing.
	node := NewNode(RoleReplica, 1)
	d := NewDriver(DriverConfig{ID: "v", Node: node, Persist: func(State) error { return errors.New("disk gone") }})
	d.Start()
	defer d.Stop()
	_, dout, err := d.Submit(context.Background(), Input{Kind: KindVote, Msg: Message{From: "b", Round: 2, Pos: c5}})
	if err == nil || dout.Reply != nil || node.Epoch() != 1 {
		t.Fatalf("undurable vote: err=%v reply=%+v epoch=%d", err, dout.Reply, node.Epoch())
	}
}

// TestHandleVoteOneGrantPerEpoch hammers one voter's driver with
// concurrent vote requests from different candidates for the same epoch:
// the driver serializes them, so at most one is granted — two majorities
// at one epoch would be a split brain epoch fencing cannot resolve.
func TestHandleVoteOneGrantPerEpoch(t *testing.T) {
	for round := 0; round < 50; round++ {
		d := NewDriver(DriverConfig{ID: "v", Node: NewNode(RoleReplica, 1)})
		d.Start()
		const voters = 8
		var wg sync.WaitGroup
		var grants atomic.Int32
		for i := 0; i < voters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m := Message{From: fmt.Sprintf("cand-%d", i), Round: 2, Pos: pos(1, 7)}
				if _, out, err := d.Submit(context.Background(), Input{Kind: KindVote, Msg: m}); err == nil && out.Reply.Granted {
					grants.Add(1)
				}
			}(i)
		}
		wg.Wait()
		d.Stop()
		if g := grants.Load(); g != 1 {
			t.Fatalf("round %d: epoch 2 granted %d times; want exactly one grant per epoch per voter", round, g)
		}
	}
}

// TestHandleVoteLineage pins the position order: (lineage, cursor)
// lexicographically, Raft's up-to-date rule. A newer reign's journal holds
// every acknowledged record of the reigns before it, so a candidate on a
// newer lineage is granted whatever its offset, and one on an older
// lineage refused whatever its offset. (Before the order was total, a
// voter abstained on any foreign lineage, and two nodes stranded on
// different reigns could refuse each other forever.)
func TestHandleVoteLineage(t *testing.T) {
	rep := State{Role: RoleReplica, Epoch: 1}

	// Same lineage: the ordinary cursor comparison.
	if _, out := ask(rep, pos(3, 9), Message{From: "b", Round: 2, Pos: pos(3, 5)}); out.Reply.Granted {
		t.Fatalf("same-lineage behind-cursor candidate granted: %+v", out.Reply)
	}
	if _, out := ask(rep, pos(3, 9), Message{From: "b", Round: 2, Pos: pos(3, 9)}); !out.Reply.Granted {
		t.Fatalf("same-lineage equal-cursor candidate refused: %+v", out.Reply)
	}

	// A newer lineage wins even with a smaller offset: granted.
	if _, out := ask(rep, pos(3, 9), Message{From: "b", Round: 2, Pos: pos(7, 5)}); !out.Reply.Granted {
		t.Fatalf("newer-lineage candidate refused: %+v", out.Reply)
	}
	// An older lineage loses even with a larger offset — and the refusal
	// adopts nothing, so the voter can still grant epoch 2 this round.
	n, out := ask(rep, pos(3, 5), Message{From: "b", Round: 2, Pos: pos(2, 9)})
	if out.Reply.Granted || n.Epoch != 1 {
		t.Fatalf("older-lineage candidate: %+v, epoch %d", out.Reply, n.Epoch)
	}
	if _, out := ask(n, pos(3, 5), Message{From: "c", Round: 2, Pos: pos(3, 5)}); !out.Reply.Granted {
		t.Fatalf("same-lineage candidate refused after the older one: %+v", out.Reply)
	}

	// A voter holding nothing (zero position) grants on epoch alone.
	if _, out := ask(rep, Position{}, Message{From: "b", Round: 2, Pos: pos(7, 9)}); !out.Reply.Granted {
		t.Fatalf("zero-position voter refused: %+v", out.Reply)
	}
}

// TestSplitVoteResolution: the primary of a three-node cluster dies and
// both survivors' first election deadlines land on the same tick — the
// worst case, a simultaneous stand: each pre-votes the other, both stand
// for epoch 2, each refuses the other. Their next timeouts differ, and
// the cluster must converge on exactly one primary that the other
// follows. Step machines on the model's network and clock, no goroutines.
func TestSplitVoteResolution(t *testing.T) {
	w := mStarts[0]()
	w.N[0].Alive = false
	draws := map[int][]int{1: {3, 3, 3, 5}, 2: {3, 3, 3, 4}}
	w.jitter = func(i int) int {
		d := draws[i]
		if len(d) > 1 {
			draws[i] = d[1:]
		}
		return d[0]
	}
	split := false
	for r := 0; !w.settled(); r++ {
		if r == mSettle {
			t.Fatalf("no primary after %d ticks: b %+v, c %+v", r, w.N[1].St, w.N[2].St)
		}
		if v := w.round(); v != "" {
			t.Fatalf("tick %d: invariant %s broken", r, v)
		}
		b, c := w.N[1].St, w.N[2].St
		split = split || b.Vote == "b" && c.Vote == "c" && b.Epoch == c.Epoch
	}
	if !split {
		t.Fatal("the deadlines never collided into a split vote: the test proves nothing")
	}
	winner, loser := w.N[1].St, w.N[2].St
	if !winner.Leads() {
		winner, loser = loser, winner
	}
	// The split consumed epoch 2; the winner stood past it, and the loser
	// folded the winner's epoch and follows it.
	if winner.Epoch < 3 || loser.Epoch != winner.Epoch || loser.Leader != winner.Leader {
		t.Fatalf("winner %+v, loser %+v", winner, loser)
	}
}

// TestControlBodyIntegrity pins the control-plane armor: a vote or
// announce body is only decodable when its checksum survives the trip.
func TestControlBodyIntegrity(t *testing.T) {
	body := []byte(`{"granted":false,"epoch":1}`)
	mk := func(b []byte, sum string) *http.Response {
		rec := httptest.NewRecorder()
		if sum != "" {
			rec.Header().Set(HeaderSum, sum)
		}
		rec.Write(b)
		return rec.Result()
	}

	got, err := VerifiedBody(mk(body, BodySum(body)), 1<<10)
	if err != nil || string(got) != string(body) {
		t.Fatalf("clean body refused: %v", err)
	}
	// One flipped bit — the chaos transport's signature damage, here
	// turning the ASCII '1' of the epoch into '5'.
	bad := append([]byte(nil), body...)
	bad[len(bad)-2] ^= 0x04
	if string(bad) != `{"granted":false,"epoch":5}` {
		t.Fatalf("flip produced %q", bad)
	}
	if _, err := VerifiedBody(mk(bad, BodySum(body)), 1<<10); err == nil {
		t.Fatal("bit-flipped body accepted")
	}
	// A cut stream delivers a clean JSON-invalid prefix; the sum catches
	// it before any decoder sees it.
	if _, err := VerifiedBody(mk(body[:5], BodySum(body)), 1<<10); err == nil {
		t.Fatal("truncated body accepted")
	}
	// No sum at all is indistinguishable from damage.
	if _, err := VerifiedBody(mk(body, ""), 1<<10); err == nil {
		t.Fatal("unsummed body accepted")
	}
}
