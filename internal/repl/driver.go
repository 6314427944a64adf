package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prorp/internal/faults"
)

// DriverConfig assembles a Driver.
type DriverConfig struct {
	// ID names this node in votes, Addr is the base URL peers follow when
	// it leads, and Peers maps every OTHER member's name to its base URL
	// (empty: no elections or announces, only fencing and promotion).
	ID    string
	Addr  string
	Peers map[string]string
	// Node is where installed state is published, Vote the persisted vote
	// at its epoch, Leader the primary followed at boot (for a replica).
	Node   *Node
	Vote   string
	Leader string
	// Lease is read on every input (nil reads as lapsed). Clock paces the
	// timer and stamps every Step; Doer carries messages to the Peers.
	Lease *Lease
	Clock faults.Clock
	Doer  faults.Doer
	// Timeout is the base election timeout: a pre-vote round starts
	// Timeout + rand(0, Timeout) after the lease lapses. Seed seeds that
	// jitter (0 = time-seeded).
	Timeout time.Duration
	Seed    int64
	// Persist durably records a state before it is installed; an error
	// drops the step. Position reports the node's replicated position.
	Persist  func(State) error
	Position func() Position
	// StopFollowing runs before a promotion is persisted, so no record of
	// the old reign is applied once this node acks writes. Follow runs after
	// a state that follows addr is installed (addr == Addr: this node leads).
	StopFollowing func()
	Follow        func(addr string)
	Logf          func(format string, args ...any)
}

// DriverStats is a point-in-time snapshot of the driver's counters.
type DriverStats struct {
	Campaigns uint64 // candidacies stood (pre-vote won)
	Wins      uint64 // elections won
	Losses    uint64 // candidacies abandoned without a win
	Announces uint64 // reign broadcasts delivered to peers
}

// Driver is the one owner of a node's election state. Every input — its
// timer, a peer's message, a higher epoch on the stream, an operator call —
// is a Step on one goroutine, and the Step's outputs run in a fixed order:
// persist, install into Node, then follow, reply and send. So an epoch,
// vote or fence is never visible in memory or on the wire before it is
// durable.
type Driver struct {
	cfg  DriverConfig
	step Config
	rng  *rand.Rand
	st   State // owned by run

	in     chan request
	stop   chan struct{}
	done   chan struct{}
	sends  sync.WaitGroup
	ctx    context.Context // cancelled by Stop: ends sends in flight
	cancel context.CancelFunc

	startOnce, stopOnce                     sync.Once
	campaigns, wins, losses, announcesAcked atomic.Uint64
}

type request struct {
	in   Input
	done chan result // nil when nobody waits
}

type result struct {
	st  State
	out Output
	err error
}

// NewDriver builds a driver from the node's current state.
func NewDriver(cfg DriverConfig) *Driver {
	if cfg.Clock == nil {
		cfg.Clock = faults.WallClock{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	step := Config{ID: cfg.ID, Addr: cfg.Addr}
	for name := range cfg.Peers {
		step.Peers = append(step.Peers, name)
	}
	sort.Strings(step.Peers)
	n := cfg.Node
	st := State{Role: n.Role(), Epoch: n.Epoch(), Fenced: n.Fenced(), Vote: cfg.Vote, Leader: cfg.Leader}
	if st.Role == RolePrimary {
		st.Leader = ""
		if !st.Fenced {
			st.Leader = cfg.Addr
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Driver{
		cfg:    cfg,
		step:   step,
		rng:    rand.New(rand.NewSource(seed)),
		st:     st,
		in:     make(chan request),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		ctx:    ctx,
		cancel: cancel,
	}
}

// Start launches the driver and, when there is an electorate, its timer.
func (d *Driver) Start() {
	d.startOnce.Do(func() {
		go d.run()
		if len(d.step.Peers) > 0 {
			go d.pace()
		}
	})
}

// Stop halts the driver and waits for it and its sends. Inputs submitted
// later fail. The timer goroutine exits when its current sleep ends: the
// injected clock's Sleep cannot be interrupted. Safe to call more than
// once, and before Start.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() { close(d.stop); d.cancel() })
	d.startOnce.Do(func() { close(d.done) })
	<-d.done
	d.sends.Wait()
}

// Stats snapshots the driver's counters.
func (d *Driver) Stats() DriverStats {
	return DriverStats{
		Campaigns: d.campaigns.Load(),
		Wins:      d.wins.Load(),
		Losses:    d.losses.Load(),
		Announces: d.announcesAcked.Load(),
	}
}

// Submit runs one input through the state machine and returns the state
// it installed and its outputs, once they have been executed. ctx bounds
// only the wait.
func (d *Driver) Submit(ctx context.Context, in Input) (State, Output, error) {
	r := request{in: in, done: make(chan result, 1)}
	select {
	case d.in <- r:
	case <-d.stop:
		return State{}, Output{}, errors.New("repl: election driver stopped")
	case <-ctx.Done():
		return State{}, Output{}, ctx.Err()
	}
	select {
	case res := <-r.done:
		return res.st, res.out, res.err
	case <-ctx.Done():
		return State{}, Output{}, ctx.Err()
	}
}

// Adopt folds in a higher epoch seen on the stream and returns once it is
// durable and installed.
func (d *Driver) Adopt(ctx context.Context, epoch uint64) error {
	_, _, err := d.Submit(ctx, Input{Kind: KindEpoch, Msg: Message{Epoch: epoch}})
	return err
}

func (d *Driver) run() {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		case r := <-d.in:
			st, out, err := d.execute(r.in)
			if r.done != nil {
				r.done <- result{st, out, err}
			}
		}
	}
}

// pace is the driver's one timer: a tick every Timeout/4 on the injected
// clock, which is also how often a primary announces. Every deadline is
// decided inside Step against Clock.Now, so a stepped test clock controls
// election timing exactly.
func (d *Driver) pace() {
	for {
		d.cfg.Clock.Sleep(d.cfg.Timeout / 4)
		select {
		case d.in <- request{in: Input{Kind: KindTick}}:
		case <-d.stop:
			return
		}
	}
}

// execute is one Step and its outputs, in order.
func (d *Driver) execute(in Input) (State, Output, error) {
	if d.cfg.Lease != nil {
		in.Lease = d.cfg.Lease.Until()
	}
	if d.cfg.Position != nil {
		in.Pos = d.cfg.Position()
	}
	in.Jitter = d.cfg.Timeout + time.Duration(d.rng.Int63n(int64(d.cfg.Timeout)))
	next, out := Step(d.step, d.st, d.cfg.Clock.Now(), in)
	for _, l := range out.Logs {
		d.cfg.Logf("repl election %s: %s", d.cfg.ID, l)
	}
	if out.Persist {
		if out.Promote && d.cfg.StopFollowing != nil {
			d.cfg.StopFollowing()
		}
		if d.cfg.Persist != nil {
			if err := d.cfg.Persist(next); err != nil {
				d.cfg.Logf("repl election %s: state not durable, step dropped: %v", d.cfg.ID, err)
				if out.Promote && d.st.Leader != "" && d.cfg.Follow != nil {
					d.cfg.Follow(d.st.Leader) // still a follower: resume
				}
				return d.st, Output{}, fmt.Errorf("election state not durable: %w", err)
			}
		}
	}
	d.st = next
	d.cfg.Node.install(next)
	if out.Campaign {
		d.campaigns.Add(1)
	}
	if out.Won {
		d.wins.Add(1)
	}
	if out.Lost {
		d.losses.Add(1)
	}
	if out.Follow != "" && out.Follow != d.cfg.Addr && d.cfg.Lease != nil {
		d.cfg.Lease.Renew(next.Epoch, 0) // word from a live primary
	}
	if out.Follow != "" && d.cfg.Follow != nil {
		d.cfg.Follow(out.Follow)
	}
	for _, m := range out.Send {
		d.sends.Add(1)
		go d.send(m)
	}
	return next, out, nil
}

// send carries one message to its peer and feeds the answer back in. It
// never blocks the driver: a dropped round trip is a lost message, which
// the protocol already tolerates.
func (d *Driver) send(m Message) {
	defer d.sends.Done()
	path, kind := "/v1/repl/vote", KindVoteReply
	if m.Kind == KindAnnounce {
		path, kind = "/v1/repl/announce", KindAnnounceReply
	}
	resp, err := roundTrip(d.ctx, d.cfg.Doer, d.cfg.Peers[m.To]+path, m)
	if err != nil {
		if m.Kind == KindVote {
			d.cfg.Logf("repl election %s: vote from %s: %v", d.cfg.ID, m.To, err)
		}
		return
	}
	if m.Kind == KindAnnounce {
		d.announcesAcked.Add(1)
	}
	// Votes are counted by the peer we asked, not by what the answer says.
	resp.Kind, resp.From = kind, m.To
	select {
	case d.in <- request{in: Input{Kind: kind, Msg: resp}}:
	case <-d.stop:
	}
}

// roundTrip POSTs one checksummed election message and decodes the
// checksummed answer.
func roundTrip(ctx context.Context, doer faults.Doer, url string, m Message) (Message, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return Message{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Message{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderSum, BodySum(body))
	resp, err := doer.Do(req)
	if err != nil {
		return Message{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return Message{}, fmt.Errorf("peer said %d", resp.StatusCode)
	}
	rbody, err := VerifiedBody(resp, 1<<16)
	if err != nil {
		return Message{}, err
	}
	var out Message
	if err := json.Unmarshal(rbody, &out); err != nil {
		return Message{}, fmt.Errorf("bad election answer: %v", err)
	}
	return out, nil
}
