// Package breaker implements a generation-counted circuit breaker for
// inter-node HTTP paths.
//
// Every call a node makes to a peer — router proxy, scatter-gather
// fan-out, replication stream polls, election solicitation, migration
// ships — normally fails by timeout when the peer is hung or
// partitioned. Timeouts are the expensive failure mode: each request
// burns the full deadline, and a fan-out that waits on a dead group
// burns it once per request forever. The breaker converts that into an
// O(1) refusal: after Threshold consecutive transport failures to a
// host the breaker opens, and further calls to that host fail instantly
// with ErrOpen until Cooldown elapses, at which point a single probe is
// admitted (half-open). A successful probe re-closes the breaker; a
// failed one re-opens it for another cooldown.
//
// The state machine is generation-counted: every transition bumps a
// generation, Allow returns the generation a call was admitted under,
// and Report ignores outcomes carrying a stale generation. That makes
// the breaker safe under concurrency — a slow request that was admitted
// while closed cannot re-trip a breaker that has since opened, probed,
// and re-closed.
package breaker

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOpen is returned by Allow — and by a wrapped Doer — when the
// breaker refuses a call: the target host has failed enough consecutive
// calls that further attempts are rejected instantly instead of burning
// a timeout each.
var ErrOpen = errors.New("circuit breaker open")

// State is a breaker's position in the closed → open → half-open cycle.
type State int32

const (
	// Closed: calls flow; consecutive transport failures are counted.
	Closed State = iota
	// Open: calls are refused instantly until the cooldown elapses.
	Open
	// HalfOpen: one probe call is in flight; everything else is refused.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Defaults for zero-valued constructor arguments.
const (
	DefaultThreshold = 5
	DefaultCooldown  = 2 * time.Second
)

// Breaker is a single host's circuit breaker. The zero value is not
// usable; construct with New.
type Breaker struct {
	mu        sync.Mutex
	now       func() time.Time
	threshold int
	cooldown  time.Duration

	state    State
	gen      uint64
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // half-open: a probe is in flight
	probeAt  time.Time // when the in-flight probe was admitted

	trips      atomic.Uint64
	rejections atomic.Uint64
	probes     atomic.Uint64
	recoveries atomic.Uint64
}

// New builds a breaker that trips after threshold consecutive failures
// and admits a recovery probe every cooldown thereafter. Zero or
// negative arguments take the package defaults; a nil now uses the wall
// clock.
func New(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{now: now, threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a call may proceed. On admission it returns the
// generation the call was admitted under; the caller must hand that
// generation back to Report with the call's outcome. On refusal it
// returns ErrOpen.
func (b *Breaker) Allow() (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return b.gen, nil
	case Open:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.rejections.Add(1)
			return 0, ErrOpen
		}
		// Cooldown elapsed: move to half-open and admit a single probe.
		b.state = HalfOpen
		return b.admitProbe(), nil
	default: // HalfOpen
		if b.probing && b.now().Sub(b.probeAt) < b.cooldown {
			b.rejections.Add(1)
			return 0, ErrOpen
		}
		// Either the previous probe's outcome never came back (its
		// caller dropped it) or its window lapsed; admit a fresh probe
		// under a new generation so the lost one can no longer report.
		return b.admitProbe(), nil
	}
}

// admitProbe starts a new half-open probe under a fresh generation.
// Caller holds b.mu.
func (b *Breaker) admitProbe() uint64 {
	b.gen++
	b.probing = true
	b.probeAt = b.now()
	b.probes.Add(1)
	return b.gen
}

// Report records the outcome of a call admitted by Allow. Outcomes
// carrying a stale generation — the state machine has transitioned
// since the call was admitted — are ignored, so a slow straggler can
// neither re-trip a recovered breaker nor re-close a re-opened one.
func (b *Breaker) Report(gen uint64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen != b.gen {
		return
	}
	switch b.state {
	case Closed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case HalfOpen:
		b.probing = false
		if ok {
			b.state = Closed
			b.gen++
			b.failures = 0
			b.recoveries.Add(1)
		} else {
			b.trip()
		}
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.gen++
	b.failures = 0
	b.openedAt = b.now()
	b.probing = false
	b.trips.Add(1)
}

// State returns the breaker's current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats is a point-in-time aggregate over one breaker or a Group.
type Stats struct {
	Trips      uint64 // closed→open and half-open→open transitions
	Rejections uint64 // calls refused with ErrOpen
	Probes     uint64 // half-open probes admitted
	Recoveries uint64 // half-open→closed transitions
	Open       uint64 // breakers currently in the Open state
}

// Stats returns this breaker's counters.
func (b *Breaker) Stats() Stats {
	st := Stats{
		Trips:      b.trips.Load(),
		Rejections: b.rejections.Load(),
		Probes:     b.probes.Load(),
		Recoveries: b.recoveries.Load(),
	}
	if b.State() == Open {
		st.Open = 1
	}
	return st
}

// Group manages one breaker per target host, all sharing the same
// threshold and cooldown. Hosts are created lazily on first use.
type Group struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	hosts     map[string]*Breaker
}

// NewGroup builds a per-host breaker group. Argument semantics match New.
func NewGroup(threshold int, cooldown time.Duration, now func() time.Time) *Group {
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	return &Group{
		threshold: threshold,
		cooldown:  cooldown,
		now:       now,
		hosts:     make(map[string]*Breaker),
	}
}

// For returns the breaker guarding host, creating it on first use.
func (g *Group) For(host string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.hosts[host]
	if b == nil {
		b = New(g.threshold, g.cooldown, g.now)
		g.hosts[host] = b
	}
	return b
}

// Cooldown returns the group's recovery cooldown — the natural
// Retry-After for a rejection caused by an open breaker.
func (g *Group) Cooldown() time.Duration { return g.cooldown }

// Stats sums counters across every breaker in the group.
func (g *Group) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var st Stats
	for _, b := range g.hosts {
		s := b.Stats()
		st.Trips += s.Trips
		st.Rejections += s.Rejections
		st.Probes += s.Probes
		st.Recoveries += s.Recoveries
		st.Open += s.Open
	}
	return st
}

// States returns each host's current state name, for health surfaces.
func (g *Group) States() map[string]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]string, len(g.hosts))
	for host, b := range g.hosts {
		out[host] = b.State().String()
	}
	return out
}

// Doer is the minimal HTTP client surface the wrapper decorates —
// satisfied by *http.Client and by the fault-injecting doers in tests.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

type breakingDoer struct {
	inner Doer
	group *Group
}

// Wrap decorates an inter-node HTTP doer with per-host circuit
// breaking. A transport error counts as a failure; any HTTP response —
// even a 5xx — counts as success, because the breaker targets hung or
// partitioned peers, not peers answering with application errors. A call
// its own caller cancelled is neither: the caller gave up (a long poll
// abandoned on shutdown or failover), which says nothing about the peer.
func Wrap(inner Doer, g *Group) Doer {
	return &breakingDoer{inner: inner, group: g}
}

func (d *breakingDoer) Do(req *http.Request) (*http.Response, error) {
	b := d.group.For(req.URL.Host)
	gen, err := b.Allow()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrOpen, req.URL.Host)
	}
	resp, err := d.inner.Do(req)
	if err != nil && errors.Is(req.Context().Err(), context.Canceled) {
		return resp, err // no verdict; a dropped half-open probe is re-admitted by Allow
	}
	b.Report(gen, err == nil)
	return resp, err
}
