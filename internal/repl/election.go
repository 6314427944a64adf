package repl

import (
	"fmt"
	"math/bits"
	"time"

	"prorp/internal/wal"
)

// The election state machine: every rule about epochs, votes, fences and
// reign announces in one pure function, Step — no goroutine, clock, HTTP
// or file. The Driver is its one production caller, the model checker in
// the tests the other. DESIGN.md §11 states the protocol: a pre-vote round
// before any candidacy, one vote per epoch that resets the voter's own
// deadline, and positions ordered by (lineage, cursor).

// Kind says what an Input is.
type Kind int

const (
	KindTick          Kind = iota // the driver's timer: lease lapse, deadlines, announces
	KindVote                      // a candidate asks for a vote (or pre-vote)
	KindVoteReply                 // a voter's verdict on our request
	KindAnnounce                  // a primary broadcasts its reign
	KindAnnounceReply             // a peer's answer to our announce
	KindEpoch                     // a peer epoch seen on a stream poll or answer
	KindFence                     // operator: adopt Msg.Epoch, fencing a primary
	KindPromote                   // operator: become the primary of a new epoch
)

// Position is a node's replicated position: Cursor is an offset into the
// journal of the primary that reigned from epoch Lineage (0 = unknown).
// Positions order lexicographically, lineage first.
type Position struct {
	Lineage uint64     `json:"lineage"`
	Cursor  wal.Cursor `json:"cursor"`
}

// Less reports whether p is strictly behind q.
func (p Position) Less(q Position) bool {
	if p.Lineage != q.Lineage {
		return p.Lineage < q.Lineage
	}
	return p.Cursor.Before(q.Cursor)
}

func (p Position) String() string { return fmt.Sprintf("%s@%d", p.Cursor, p.Lineage) }

// Message is every election message on the wire: vote requests and their
// verdicts on /v1/repl/vote, reign announces and their answers on
// /v1/repl/announce.
type Message struct {
	Kind Kind   `json:"-"`
	To   string `json:"-"` // outbound: the peer to send to
	// From names the sender; Epoch is its epoch (on a reply, after handling
	// the request).
	From  string `json:"from"`
	Epoch uint64 `json:"epoch"`
	// Round is the epoch a vote request proposes, and a verdict answers.
	Round   uint64 `json:"round,omitempty"`
	PreVote bool   `json:"pre_vote,omitempty"`
	Granted bool   `json:"granted,omitempty"`
	// Pos is a candidate's replicated position.
	Pos Position `json:"pos"`
	// Addr is a candidate's or announcer's base URL; on a refusal, the
	// voter's own URL when it is the primary.
	Addr   string `json:"addr,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// Input is one event for Step. The driver fills Lease, Pos and Jitter on
// every input, so Step never reads a clock, a lock or a random source.
type Input struct {
	Kind Kind
	Msg  Message // the message; for KindEpoch and KindFence only Msg.Epoch
	// Lease is when this node's lease from the primary runs out, Pos its
	// replicated position, Jitter a fresh randomized election timeout.
	Lease  time.Time
	Pos    Position
	Jitter time.Duration
}

// Config is the fixed part of one node's state machine.
type Config struct {
	ID   string // this node's name in votes
	Addr string // the base URL peers follow when this node leads
	// Peers names every OTHER member, sorted; self + peers is the
	// electorate. Empty disables elections and announces.
	Peers []string
}

func (c Config) majority() int { return (1+len(c.Peers))/2 + 1 }

func (c Config) peerBit(name string) uint64 {
	for i, p := range c.Peers {
		if p == name {
			return 1 << i
		}
	}
	return 0
}

// State is one node's election state. Role, Epoch, Fenced and Vote are
// durable; the rest is rebuilt at boot. State is a comparable value.
type State struct {
	Role   Role
	Epoch  uint64
	Fenced bool
	// Vote names the candidate this node voted for at Epoch ("" for none;
	// its own ID once it stood or leads).
	Vote string
	// Leader is the base URL of the primary this node follows: its own Addr
	// while it leads, empty while it follows nobody (a fenced ex-primary
	// not yet re-attached).
	Leader string
	// ElectAt is when a lapsed lease licenses the next pre-vote round (zero
	// while disarmed); Round is the candidacy in flight.
	ElectAt time.Time
	Round   Round
}

// Round is a candidacy: the epoch proposed (0 = none), whether it is still
// collecting pre-votes, and the granting peers as Config.Peers bits (self
// implied).
type Round struct {
	Epoch   uint64
	PreVote bool
	Votes   uint64
}

// Leads reports whether the state acknowledges writes.
func (s State) Leads() bool { return s.Role == RolePrimary && !s.Fenced }

// Output is what the driver must do after a Step, in this order: persist,
// install the state, then follow / renew / reply / send.
type Output struct {
	// Persist: the durable part of the state changed and must reach the
	// disk before anything below is visible.
	Persist bool
	// Promote: this node just became the unfenced primary.
	Promote bool
	// Follow names the primary to stream from, word from which renews the
	// lease (this node's own Addr when it leads).
	Follow string
	Reply  *Message
	Send   []Message
	// Campaign, Won and Lost count candidacies for /metrics.
	Campaign, Won, Lost bool
	Logs                []string
}

func (o *Output) logf(format string, args ...any) {
	o.Logs = append(o.Logs, fmt.Sprintf(format, args...))
}

// Step applies one input to s at time now. It is pure.
func Step(cfg Config, s State, now time.Time, in Input) (State, Output) {
	n, out := s, Output{}
	m := in.Msg
	switch in.Kind {
	case KindTick:
		n.tick(cfg, now, in, &out)
	case KindVote:
		n.vote(cfg, now, in, &out)
	case KindVoteReply:
		n.verdict(cfg, now, in, &out)
	case KindAnnounce:
		reply := Message{Kind: KindAnnounceReply, From: cfg.ID}
		if m.Epoch >= n.Epoch && m.Addr != "" && m.Addr != cfg.Addr {
			n.observe(m.Epoch, "announced by "+m.Addr, &out)
			if !n.Leads() {
				if n.Round.Epoch != 0 {
					n.endRound(&out)
				}
				n.Leader, n.ElectAt = m.Addr, time.Time{}
				out.Follow = m.Addr
			}
		}
		reply.Epoch = n.Epoch
		out.Reply = &reply
	case KindAnnounceReply:
		n.observe(m.Epoch, "a peer answered our announce", &out)
	case KindEpoch:
		n.observe(m.Epoch, "seen on the stream", &out)
	case KindFence:
		n.observe(m.Epoch, "operator fence", &out)
	case KindPromote:
		if !n.Leads() {
			n.lead(cfg, n.Epoch+1, &out)
		}
	}
	// Persist before visible: a durable field that changed is written
	// before the driver installs the state or lets any message leave.
	out.Persist = n.Role != s.Role || n.Epoch != s.Epoch || n.Fenced != s.Fenced || n.Vote != s.Vote
	return n, out
}

// observe adopts an epoch beyond ours: a primary that sees one is fenced
// for good, and any candidacy at a lower epoch is over.
func (s *State) observe(e uint64, why string, out *Output) {
	if e <= s.Epoch {
		return
	}
	s.Epoch, s.Vote = e, ""
	if s.Leads() {
		s.Fenced, s.Leader = true, ""
		out.logf("fenced at epoch %d (%s); this node no longer accepts writes", e, why)
	}
	if s.Round.Epoch != 0 {
		s.endRound(out)
	}
}

// endRound abandons the candidacy in flight; a real one counts as lost.
func (s *State) endRound(out *Output) {
	out.Lost = !s.Round.PreVote
	s.Round = Round{}
}

func (s *State) tick(cfg Config, now time.Time, in Input, out *Output) {
	if s.Leads() {
		// The reign broadcast: the lease heartbeat for peers not streaming
		// from this node (yet), and how a stale primary learns it is one.
		s.ElectAt = time.Time{}
		s.announce(cfg, out)
		return
	}
	if len(cfg.Peers) == 0 || !now.After(in.Lease) {
		// No electorate, or the primary is alive: stand down.
		s.ElectAt = time.Time{}
		return
	}
	if s.ElectAt.IsZero() {
		s.ElectAt = now.Add(in.Jitter)
		out.logf("lease lapsed; pre-vote at %s unless the primary returns", s.ElectAt.Format(time.RFC3339Nano))
		return
	}
	if now.Before(s.ElectAt) {
		return
	}
	// The deadline fired: a pre-vote round for epoch+1, which replaces any
	// round still in flight.
	if s.Round.Epoch != 0 {
		s.endRound(out)
	}
	s.ElectAt = now.Add(in.Jitter)
	s.Round = Round{Epoch: s.Epoch + 1, PreVote: true}
	out.logf("pre-vote for epoch %d at %s", s.Round.Epoch, in.Pos)
	s.solicit(cfg, in.Pos, out)
}

func (s *State) solicit(cfg Config, pos Position, out *Output) {
	for _, p := range cfg.Peers {
		out.Send = append(out.Send, Message{Kind: KindVote, To: p, From: cfg.ID, Epoch: s.Epoch,
			Round: s.Round.Epoch, PreVote: s.Round.PreVote, Pos: pos, Addr: cfg.Addr})
	}
}

func (s *State) announce(cfg Config, out *Output) {
	for _, p := range cfg.Peers {
		out.Send = append(out.Send, Message{Kind: KindAnnounce, To: p, From: cfg.ID, Epoch: s.Epoch, Addr: cfg.Addr})
	}
}

// vote is the voter's side.
func (s *State) vote(cfg Config, now time.Time, in Input, out *Output) {
	m := in.Msg
	reply := Message{Kind: KindVoteReply, From: cfg.ID, Round: m.Round, PreVote: m.PreVote}
	kind := "vote"
	if m.PreVote {
		kind = "pre-vote"
	}
	switch {
	case m.Round < s.Epoch || m.Round == s.Epoch && (m.PreVote || s.Leads() || s.Vote != "" && s.Vote != m.From):
		reply.Reason = fmt.Sprintf("epoch %d not beyond %d", m.Round, s.Epoch)
	case m.Pos.Less(in.Pos):
		// Refusing adopts nothing: this voter may still grant the epoch
		// to a candidate that is up to date.
		reply.Reason = fmt.Sprintf("candidate position %s behind ours (%s)", m.Pos, in.Pos)
	case m.PreVote && s.Leads():
		reply.Reason = "this node is the primary"
	case m.PreVote && !now.After(in.Lease):
		reply.Reason = "our lease from the primary is live"
	case m.PreVote:
		reply.Granted = true
	default:
		// Adopting the epoch fences a primary; the vote is recorded with
		// it. The grant also resets our own deadline, so we do not stand
		// against the winner we just elected before its announce lands.
		s.observe(m.Round, "granted a vote", out)
		s.Vote = m.From
		s.ElectAt = now.Add(in.Jitter)
		reply.Granted = true
	}
	if reply.Granted {
		out.logf("%s granted: %s is our candidate for epoch %d", kind, m.From, m.Round)
	} else {
		out.logf("%s refused for %s (epoch %d): %s", kind, m.From, m.Round, reply.Reason)
	}
	reply.Epoch = s.Epoch
	if s.Leads() {
		reply.Addr = cfg.Addr // a refused candidate learns where the primary is
	}
	out.Reply = &reply
}

// verdict is the candidate's side: fold refusals, count grants.
func (s *State) verdict(cfg Config, now time.Time, in Input, out *Output) {
	m := in.Msg
	if !m.Granted {
		s.observe(m.Epoch, "a voter is past our round", out)
		if m.Addr != "" && m.Epoch == s.Epoch && m.Addr != s.Leader && !s.Leads() {
			// The voter is the primary of our epoch: follow it.
			if s.Round.Epoch != 0 {
				s.endRound(out)
			}
			s.Leader, out.Follow = m.Addr, m.Addr
		}
		return
	}
	r := &s.Round
	if r.Epoch == 0 || m.Round != r.Epoch || m.PreVote != r.PreVote {
		return // a verdict on a round we no longer run
	}
	r.Votes |= cfg.peerBit(m.From)
	if 1+bits.OnesCount64(r.Votes) < cfg.majority() {
		return
	}
	if r.PreVote {
		// Licensed: stand for real, with a fresh deadline for the round. The
		// self-vote adopts the epoch durably before any request leaves.
		s.Epoch, s.Vote, r.PreVote, r.Votes = r.Epoch, cfg.ID, false, 0
		s.ElectAt = now.Add(in.Jitter)
		out.Campaign = true
		out.logf("standing for epoch %d at %s", s.Epoch, in.Pos)
		s.solicit(cfg, in.Pos, out)
		return
	}
	out.Won = true
	out.logf("won epoch %d", r.Epoch)
	s.lead(cfg, r.Epoch, out)
}

// lead makes the node the unfenced primary of epoch e and announces it.
func (s *State) lead(cfg Config, e uint64, out *Output) {
	s.Role, s.Epoch, s.Fenced, s.Vote, s.Leader = RolePrimary, e, false, cfg.ID, cfg.Addr
	s.ElectAt, s.Round = time.Time{}, Round{}
	out.Promote, out.Follow = true, cfg.Addr
	out.logf("primary of epoch %d", e)
	s.announce(cfg, out)
}
