package repl

import (
	"flag"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"testing"
	"time"

	"prorp/internal/wal"
)

// The election model checker. Three Step machines — a, the reigning
// primary, and replicas b and c — run against a network the checker
// controls completely. From each starting cluster it explores every
// interleaving, up to -elect.depth actions, of: delivering any vote
// message in flight, dropping or duplicating one, a clock tick, a write on
// the primary, a lease lapse, a crash and a reboot from persisted state,
// and a partition that isolates one node and heals. Reign announces and
// stream polls are the heartbeat: they reach every reachable node at once
// (an announce on the primary's tick, a poll on each follower's), so a
// lost heartbeat is a lease lapse, a partition or a crash. Faults are
// budgeted — one crash, one partition, two lapses, one drop, one
// duplicate — and delivery is bounded: a tick waits until every vote
// message sent before the previous tick has been handled. States are
// deduplicated by a hash of their canonical form.
//
// Every transition is checked against the safety invariants, and from
// every state explored a fault-free continuation — partition healed, every
// message delivered one hop per tick — must settle on one primary that
// every live node follows.

var electDepth = flag.Int("elect.depth", 0, "depth bound of the election model checker (actions from each starting cluster; 0 = 11, or 9 under -race)")

// modelDepth is the bound -elect.depth=0 stands for.
var modelDepth = 11

const (
	mN        = 3
	mTTL      = 2  // ticks a lease stays live after its last renewal
	mMaxEpoch = 8  // states past this epoch are not explored
	mSettle   = 40 // ticks a fault-free continuation may take to settle
)

var (
	mt0    = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	mNames = [mN]string{"a", "b", "c"}
	// mJitter is each node's election timeout in ticks: fixed and distinct,
	// so a continuation cannot split votes forever by symmetry, and above
	// the two hops a grant's reply and the winner's announce take.
	mJitter = [mN]int{3, 4, 5}
)

var mAddrs = [mN]string{"http://a", "http://b", "http://c"}

func mAddr(i int) string { return mAddrs[i] }

func mIndex(name string) int {
	for i, n := range mNames {
		if n == name {
			return i
		}
	}
	return -1
}

var mCfgs = func() (cfgs [mN]Config) {
	for i := range cfgs {
		cfgs[i] = Config{ID: mNames[i], Addr: mAddr(i)}
		for j := range mNames {
			if j != i {
				cfgs[i].Peers = append(cfgs[i].Peers, mNames[j])
			}
		}
	}
	return cfgs
}()

type mNode struct {
	St    State
	Disk  State // the persisted fields: Role, Epoch, Fenced, Vote
	Alive bool
	Lease int // the last tick the lease is live at
	Pos   Position
}

type mMsg struct {
	Message
	Age int8 // ticks since sent
}

type mBudget struct{ Crash, Cut, Lapse, Drop, Dup, Write int8 }

var mLimits = mBudget{Crash: 1, Cut: 1, Lapse: 2, Drop: 1, Dup: 1, Write: 1}

type world struct {
	N   [mN]mNode
	Now int
	Net []mMsg // vote requests and verdicts in flight
	Cut int8   // the isolated node, -1 for none
	// Deaf marks nodes whose lease lapsed: they hear no heartbeat until
	// the network heals.
	Deaf [mN]bool
	Used mBudget
	// Ghost state for the invariants: who won each epoch, whom each node
	// granted a real vote (or its self-vote) per epoch, who granted each
	// node a pre-vote per epoch, and when each node last granted a vote.
	Winner  [mMaxEpoch + 2]int8
	Grant   [mN][mMaxEpoch + 2]int8
	PreOK   [mN][mMaxEpoch + 2]uint8
	GrantAt [mN]int
	// jitter, when set, replaces mJitter; it is not part of the identity.
	jitter func(node int) int
}

func durable(s State) State {
	return State{Role: s.Role, Epoch: s.Epoch, Fenced: s.Fenced, Vote: s.Vote}
}

// newWorld is a healthy cluster: a leads epoch e, b and c follow it, and
// each node sits at the given position.
func newWorld(e uint64, pos [mN]Position) *world {
	w := &world{Cut: -1}
	for i := range w.N {
		st := State{Role: RoleReplica, Epoch: e, Leader: mAddr(0)}
		if i == 0 {
			st.Role = RolePrimary
		}
		w.N[i] = mNode{St: st, Disk: durable(st), Alive: true, Lease: mTTL, Pos: pos[i]}
		w.GrantAt[i] = -100
	}
	return w
}

func at(lineage uint64, off int64) Position {
	return Position{Lineage: lineage, Cursor: wal.Cursor{Seg: 1, Off: off}}
}

// mStarts are the clusters explored: positions level, the primary ahead,
// and the followers stranded on different earlier reigns (mid-resync).
var mStarts = []func() *world{
	func() *world { return newWorld(1, [mN]Position{at(1, 1), at(1, 1), at(1, 1)}) },
	func() *world { return newWorld(1, [mN]Position{at(1, 3), at(1, 2), at(1, 1)}) },
	func() *world { return newWorld(3, [mN]Position{at(3, 1), at(2, 5), at(1, 9)}) },
}

func (w *world) clone() *world {
	c := *w
	c.Net = append([]mMsg(nil), w.Net...)
	return &c
}

func (w *world) time() time.Time { return mt0.Add(time.Duration(w.Now) * time.Second) }

func (w *world) reachable(i, j int) bool {
	return w.N[i].Alive && w.N[j].Alive && (w.Cut < 0 || (int(w.Cut) != i && int(w.Cut) != j))
}

// violation names the invariant a transition broke.
type violation string

// step runs input in through node i's Step and applies the outputs the way
// the driver does, checking every invariant the transition touches.
func (w *world) step(i int, in Input) violation {
	nd := &w.N[i]
	in.Lease = mt0.Add(time.Duration(nd.Lease) * time.Second)
	in.Pos = nd.Pos
	j := mJitter[i]
	if w.jitter != nil {
		j = w.jitter(i)
	}
	in.Jitter = time.Duration(j) * time.Second
	prev := nd.St
	next, out := Step(mCfgs[i], prev, w.time(), in)
	m := in.Msg
	if in.Kind == KindVote && m.PreVote && (out.Persist || durable(next) != durable(prev)) {
		return "prevote-persists-nothing"
	}
	if out.Persist {
		nd.Disk = durable(next)
	}
	if durable(next) != nd.Disk {
		// The driver installs next and lets its messages leave only after
		// persisting; a change Step did not ask to persist would be visible
		// in memory and on the wire, and gone after a crash.
		return "visible-state-is-durable"
	}
	nd.St = next
	if out.Follow != "" && out.Follow != mAddr(i) {
		nd.Lease = w.Now + mTTL
	}
	if r := out.Reply; r != nil && in.Kind == KindVote && r.Granted {
		cand := mIndex(m.From)
		if m.PreVote {
			w.PreOK[cand][min(m.Round, mMaxEpoch+1)] |= 1 << i
		} else {
			if m.Pos.Less(nd.Pos) {
				return "winner-up-to-date"
			}
			if v := w.grant(i, m.Round, cand); v != "" {
				return v
			}
			w.GrantAt[i] = w.Now
		}
	}
	if in.Kind == KindTick && next.Round.PreVote && next.Round != prev.Round && w.Now < w.GrantAt[i]+mJitter[0] {
		// A granter that stood before a timeout passed would stand against
		// the winner it just elected before the winner's announce lands.
		return "granter-waits-a-timeout"
	}
	if out.Campaign {
		e := min(next.Epoch, mMaxEpoch+1)
		if 1+bits.OnesCount8(w.PreOK[i][e]) < mCfgs[i].majority() {
			return "epoch-needs-prevote"
		}
		if v := w.grant(i, next.Epoch, i); v != "" {
			return v
		}
	}
	if out.Won {
		e := min(next.Epoch, mMaxEpoch+1)
		if w.Winner[e] != 0 && w.Winner[e] != int8(i+1) {
			return "one-winner-per-epoch"
		}
		w.Winner[e] = int8(i + 1)
	}
	if r := out.Reply; r != nil && in.Kind == KindVote {
		r.To, r.Reason = m.From, ""
		w.Net = append(w.Net, mMsg{Message: *r})
	}
	for _, s := range out.Send {
		if s.Kind == KindVote {
			w.Net = append(w.Net, mMsg{Message: s})
			continue
		}
		// The heartbeat: an announce and its answer, at once.
		to := mIndex(s.To)
		if !w.reachable(i, to) || w.Deaf[to] {
			continue
		}
		if v := w.step(to, Input{Kind: KindAnnounce, Msg: s}); v != "" {
			return v
		}
		reply := Message{From: s.To, Epoch: w.N[to].St.Epoch}
		if v := w.step(i, Input{Kind: KindAnnounceReply, Msg: reply}); v != "" {
			return v
		}
	}
	return ""
}

// grant records that voter v gave epoch e to candidate c.
func (w *world) grant(v int, e uint64, c int) violation {
	e = min(e, mMaxEpoch+1)
	if g := w.Grant[v][e]; g != 0 && g != int8(c+1) {
		return "one-grant-per-epoch"
	}
	w.Grant[v][e] = int8(c + 1)
	return ""
}

// deliver hands message k to its receiver; a dead or cut-off receiver
// loses it.
func (w *world) deliver(k int) violation {
	m := w.Net[k].Message
	w.Net = append(w.Net[:k:k], w.Net[k+1:]...)
	to := mIndex(m.To)
	if !w.reachable(mIndex(m.From), to) {
		return ""
	}
	return w.step(to, Input{Kind: m.Kind, Msg: m})
}

// tick advances the clock a second, ticks every live node, then lets every
// follower poll the primary it follows.
func (w *world) tick() violation {
	w.Now++
	w.Net = w.live()
	for k := range w.Net {
		w.Net[k].Age++
	}
	for i := range w.N {
		if w.N[i].Alive {
			if v := w.step(i, Input{Kind: KindTick}); v != "" {
				return v
			}
		}
	}
	for i := range w.N {
		if v := w.poll(i); v != "" {
			return v
		}
	}
	return ""
}

// leaderOf is the node i follows, -1 for none.
func (w *world) leaderOf(i int) int {
	for j := range w.N {
		if j != i && w.N[i].St.Leader == mAddr(j) {
			return j
		}
	}
	return -1
}

// poll is one stream exchange between follower i and the primary it
// follows: each side folds in the other's epoch, and a current primary
// ships its position and, if it leads, renews the lease.
func (w *world) poll(i int) violation {
	j := w.leaderOf(i)
	if j < 0 || w.N[i].St.Leads() || w.Deaf[i] || !w.reachable(i, j) || w.N[j].St.Role != RolePrimary {
		return ""
	}
	if e := w.N[i].St.Epoch; e > w.N[j].St.Epoch {
		if v := w.step(j, Input{Kind: KindEpoch, Msg: Message{Epoch: e}}); v != "" {
			return v
		}
	}
	if e := w.N[j].St.Epoch; e > w.N[i].St.Epoch {
		if v := w.step(i, Input{Kind: KindEpoch, Msg: Message{Epoch: e}}); v != "" {
			return v
		}
	}
	if w.N[j].St.Epoch < w.N[i].St.Epoch {
		return "" // a stale primary: nothing is applied
	}
	if w.N[i].Pos.Less(w.N[j].Pos) {
		w.N[i].Pos = w.N[j].Pos
	}
	if w.N[j].St.Leads() {
		w.N[i].Lease = w.Now + mTTL
	}
	return ""
}

func (w *world) tickAllowed() bool {
	for _, m := range w.Net {
		if m.Age >= 1 && w.reachable(mIndex(m.From), mIndex(m.To)) {
			return false
		}
	}
	return true
}

// boot is node i's state after a reboot from its persisted fields.
func boot(i int, disk State) State {
	if i != 0 {
		return State{Role: RoleReplica, Epoch: disk.Epoch, Vote: disk.Vote, Leader: mAddr(0)}
	}
	st := State{Role: RolePrimary, Epoch: disk.Epoch, Fenced: disk.Fenced, Vote: disk.Vote}
	if !st.Fenced {
		st.Leader = mAddr(0)
	}
	return st
}

// action is one labelled transition out of a world.
type action struct {
	label func() string
	do    func(w *world) violation
}

func named(s string) func() string { return func() string { return s } }

func (w *world) actions() []action {
	var acts []action
	for k := range w.Net {
		k, m := k, w.Net[k]
		desc := func(verb string) func() string {
			return func() string {
				return fmt.Sprintf("%s %s→%s pre=%v granted=%v round %d epoch %d", verb, m.From, m.To, m.PreVote, m.Granted, m.Round, m.Epoch)
			}
		}
		acts = append(acts, action{desc("deliver"), func(w *world) violation { return w.deliver(k) }})
		if !w.reachable(mIndex(m.From), mIndex(m.To)) {
			continue
		}
		if w.Used.Drop < mLimits.Drop {
			acts = append(acts, action{desc("drop"), func(w *world) violation {
				w.Used.Drop++
				w.Net = append(w.Net[:k:k], w.Net[k+1:]...)
				return ""
			}})
		}
		if w.Used.Dup < mLimits.Dup {
			acts = append(acts, action{desc("duplicate"), func(w *world) violation {
				w.Used.Dup++
				w.Net = append(w.Net, w.Net[k])
				return ""
			}})
		}
	}
	if w.tickAllowed() {
		acts = append(acts, action{named("tick"), (*world).tick})
	}
	for i := range w.N {
		i, nd := i, w.N[i]
		if nd.Alive && nd.St.Leads() && w.Used.Write < mLimits.Write {
			acts = append(acts, action{named("write on " + mNames[i]), func(w *world) violation {
				w.Used.Write++
				w.N[i].Pos.Cursor.Off++
				return ""
			}})
		}
		if nd.Alive && !nd.St.Leads() && nd.Lease >= w.Now && w.Used.Lapse < mLimits.Lapse {
			acts = append(acts, action{named("lease lapses on " + mNames[i]), func(w *world) violation {
				w.Used.Lapse++
				w.N[i].Lease, w.Deaf[i] = w.Now-1, true
				return ""
			}})
		}
		switch {
		case nd.Alive && w.Used.Crash < mLimits.Crash:
			acts = append(acts, action{named("crash " + mNames[i]), func(w *world) violation {
				w.Used.Crash++
				w.N[i].Alive = false
				return ""
			}})
		case !nd.Alive:
			acts = append(acts, action{named("reboot " + mNames[i]), func(w *world) violation {
				// What a reboot shows is derived from the disk: the node's
				// configured role with the persisted epoch, fence and vote.
				n := &w.N[i]
				n.Alive, n.St, n.Lease = true, boot(i, n.Disk), -1
				n.Disk = durable(n.St)
				return ""
			}})
		}
		if w.Cut < 0 && w.Used.Cut < mLimits.Cut {
			acts = append(acts, action{named("isolate " + mNames[i]), func(w *world) violation {
				w.Used.Cut++
				w.Cut = int8(i)
				return ""
			}})
		}
	}
	if w.Cut >= 0 || w.Deaf != [mN]bool{} {
		acts = append(acts, action{named("heal"), (*world).heal})
	}
	return acts
}

func (w *world) heal() violation {
	w.Cut, w.Deaf = -1, [mN]bool{}
	return ""
}

// live drops the messages no receiver can take.
func (w *world) live() []mMsg {
	out := w.Net[:0:0]
	for _, m := range w.Net {
		if w.reachable(mIndex(m.From), mIndex(m.To)) {
			out = append(out, m)
		}
	}
	return out
}

// settled reports whether exactly one live node leads, at an epoch no
// live node is past, and every other live node follows it.
func (w *world) settled() bool {
	p := -1
	for i, n := range w.N {
		if n.Alive && n.St.Leads() {
			if p >= 0 {
				return false
			}
			p = i
		}
	}
	if p < 0 {
		return false
	}
	for i, n := range w.N {
		if i != p && n.Alive && (n.St.Epoch > w.N[p].St.Epoch || n.St.Leader != mAddr(p)) {
			return false
		}
	}
	return true
}

// round is one tick of a fault-free continuation: every message in flight
// is delivered (what it causes goes out next round), then the clock ticks.
func (w *world) round() violation {
	net := w.live()
	sort.Slice(net, func(a, b int) bool { return lessMsg(net[a].Message, net[b].Message) })
	w.Net = nil
	for _, m := range net {
		w.Net = append(w.Net, m)
		if v := w.deliver(len(w.Net) - 1); v != "" {
			return v
		}
	}
	return w.tick()
}

func lessMsg(a, b Message) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.Round < b.Round || a.Round == b.Round && !a.PreVote && b.PreVote
}

// hasher folds int64 words into an FNV-style 64-bit hash.
type hasher uint64

func (h *hasher) put(v int64) {
	x := (uint64(*h) ^ uint64(v)) * 1099511628211
	*h = hasher(x ^ x>>31)
}

func (h *hasher) flag(v bool) {
	if v {
		h.put(1)
	} else {
		h.put(0)
	}
}

// hash is the identity of a world: everything that can influence what
// happens next or what an invariant checks, with times relative to now.
func (w *world) hash() uint64 {
	h := hasher(14695981039346656037)
	now := w.time()
	for i := range w.N {
		n := &w.N[i]
		s := &n.St
		h.flag(n.Alive)
		h.put(int64(s.Role))
		h.put(int64(s.Epoch))
		h.flag(s.Fenced)
		h.put(int64(w.leaderOf(i)))
		if s.ElectAt.IsZero() {
			h.put(-1 << 20)
		} else {
			h.put(int64(s.ElectAt.Sub(now) / time.Second))
		}
		h.put(int64(s.Round.Epoch))
		h.flag(s.Round.PreVote)
		h.put(int64(s.Round.Votes))
		h.put(int64(n.Disk.Epoch))
		h.flag(n.Disk.Fenced)
		h.put(int64(mIndex(s.Vote)))
		h.put(int64(mIndex(n.Disk.Vote)))
		h.put(max(int64(n.Lease-w.Now), -1))
		h.put(int64(n.Pos.Lineage))
		h.put(n.Pos.Cursor.Off)
		h.put(min(int64(w.Now-w.GrantAt[i]), 9))
		h.flag(w.Deaf[i])
	}
	var buf [16]int64
	msgs := buf[:0]
	for _, m := range w.Net {
		k := int64(mIndex(m.From))<<56 | int64(mIndex(m.To))<<52 | int64(m.Epoch)<<40 |
			int64(m.Round)<<28 | int64(m.Pos.Lineage)<<20 | m.Pos.Cursor.Off<<6 | int64(m.Age)
		if m.PreVote {
			k |= 1 << 3
		}
		if m.Granted {
			k |= 1 << 2
		}
		msgs = append(msgs, k)
	}
	for a := 1; a < len(msgs); a++ { // insertion sort: a handful of messages
		for b := a; b > 0 && msgs[b] < msgs[b-1]; b-- {
			msgs[b], msgs[b-1] = msgs[b-1], msgs[b]
		}
	}
	for _, k := range msgs {
		h.put(k)
	}
	h.put(-1)
	u := w.Used
	for _, v := range []int8{w.Cut, u.Crash, u.Cut, u.Lapse, u.Drop, u.Dup, u.Write} {
		h.put(int64(v))
	}
	for e := range w.Winner {
		h.put(int64(w.Winner[e]))
		for i := range w.N {
			h.put(int64(w.Grant[i][e]))
			h.put(int64(w.PreOK[i][e]))
		}
	}
	return uint64(h)
}

func (w *world) maxEpoch() uint64 {
	var e uint64
	for _, n := range w.N {
		e = max(e, n.St.Epoch)
	}
	return e
}

// checker explores worlds depth-first with hash deduplication.
type checker struct {
	seen    map[uint64]int // the most depth left any visit had
	settles map[uint64]bool
	states  int
	path    []func() string
	failure string
}

func newChecker() *checker {
	return &checker{seen: map[uint64]int{}, settles: map[uint64]bool{}}
}

func (c *checker) fail(v violation, label string) {
	if c.failure == "" {
		steps := make([]string, len(c.path))
		for k, l := range c.path {
			steps[k] = l()
		}
		c.failure = fmt.Sprintf("invariant %s broken by %s after:\n  %s", v, label, strings.Join(steps, "\n  "))
	}
}

func (c *checker) explore(w *world, depth int) {
	if c.failure != "" {
		return
	}
	h := w.hash()
	d, ok := c.seen[h]
	if ok && d >= depth {
		return
	}
	c.seen[h] = depth
	if !ok {
		c.states++
		if v, label := c.converges(w); v != "" {
			c.fail(v, label)
			return
		}
	}
	if depth == 0 {
		return
	}
	for _, a := range w.actions() {
		next := w.clone()
		c.path = append(c.path, a.label)
		if v := a.do(next); v != "" {
			c.fail(v, a.label())
			return
		}
		if next.maxEpoch() <= mMaxEpoch {
			c.explore(next, depth-1)
		}
		c.path = c.path[:len(c.path)-1]
	}
}

// converges runs the fault-free continuation from w — healed, one round
// per tick — until the cluster settles. Verdicts are memoized per state.
func (c *checker) converges(w *world) (violation, string) {
	cont := w.clone()
	cont.heal()
	var visited []uint64
	for r := 0; ; r++ {
		h := cont.hash()
		if c.settles[h] || cont.settled() {
			for _, v := range visited {
				c.settles[v] = true
			}
			return "", ""
		}
		if r == mSettle {
			return "primary-emerges", fmt.Sprintf("a fault-free continuation of %d ticks", mSettle)
		}
		visited = append(visited, h)
		if v := cont.round(); v != "" {
			return v, fmt.Sprintf("tick %d of the fault-free continuation", r+1)
		}
	}
}

// TestElectionModel enumerates the three-node election protocol from each
// starting cluster to the -elect.depth bound (make lease-chaos runs it
// deeper than tier-1 does).
func TestElectionModel(t *testing.T) {
	depth := *electDepth
	if depth == 0 {
		depth = modelDepth
	}
	for k, mk := range mStarts {
		t.Run(fmt.Sprintf("cluster%d", k), func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			c := newChecker()
			c.explore(mk(), depth)
			if c.failure != "" {
				t.Fatal(c.failure)
			}
			t.Logf("depth %d: %d states explored in %v", depth, c.states, time.Since(start).Round(time.Millisecond))
		})
	}
}
