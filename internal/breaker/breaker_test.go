package breaker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// tickClock is a manual clock: Now returns the current instant and
// Advance moves it forward.
type tickClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTickClock() *tickClock {
	return &tickClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *tickClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// report runs one admitted call through the breaker with the given
// outcome, failing the test if the breaker refused it.
func report(t *testing.T, b *Breaker, ok bool) {
	t.Helper()
	gen, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow() refused in state %v: %v", b.State(), err)
	}
	b.Report(gen, ok)
}

// TestTripThreshold tables the closed-state failure counter: only
// `threshold` CONSECUTIVE failures trip the breaker; any intervening
// success resets the count.
func TestTripThreshold(t *testing.T) {
	cases := []struct {
		name      string
		threshold int
		outcomes  []bool // applied in order; false = transport failure
		want      State
	}{
		{"under threshold stays closed", 3, []bool{false, false}, Closed},
		{"at threshold trips", 3, []bool{false, false, false}, Open},
		{"success resets the streak", 3, []bool{false, false, true, false, false}, Closed},
		{"streak after reset still trips", 3, []bool{false, true, false, false, false}, Open},
		{"threshold one trips immediately", 1, []bool{false}, Open},
		{"all successes stay closed", 2, []bool{true, true, true, true}, Closed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newTickClock()
			b := New(tc.threshold, time.Second, clock.Now)
			for _, ok := range tc.outcomes {
				report(t, b, ok)
			}
			if got := b.State(); got != tc.want {
				t.Fatalf("state after %v = %v, want %v", tc.outcomes, got, tc.want)
			}
		})
	}
}

// TestOpenRejectsUntilCooldown verifies the O(1) refusal: an open
// breaker rejects instantly with ErrOpen until the cooldown elapses.
func TestOpenRejectsUntilCooldown(t *testing.T) {
	clock := newTickClock()
	b := New(2, 10*time.Second, clock.Now)
	report(t, b, false)
	report(t, b, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	for i := 0; i < 5; i++ {
		clock.Advance(time.Second) // 5s total: still inside the cooldown
		if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
			t.Fatalf("Allow() during cooldown = %v, want ErrOpen", err)
		}
	}
	if got := b.Stats().Rejections; got != 5 {
		t.Fatalf("rejections = %d, want 5", got)
	}
	clock.Advance(5 * time.Second) // cooldown elapsed
	if _, err := b.Allow(); err != nil {
		t.Fatalf("Allow() after cooldown = %v, want probe admitted", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
}

// TestHalfOpenProbe tables the half-open single-probe protocol: exactly
// one probe is admitted per cooldown, its outcome decides the next
// state, and concurrent calls during the probe are refused.
func TestHalfOpenProbe(t *testing.T) {
	cases := []struct {
		name    string
		probeOK bool
		want    State
	}{
		{"successful probe re-closes", true, Closed},
		{"failed probe re-opens", false, Open},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newTickClock()
			b := New(1, time.Second, clock.Now)
			report(t, b, false) // trip
			clock.Advance(time.Second)

			gen, err := b.Allow()
			if err != nil {
				t.Fatalf("probe refused: %v", err)
			}
			// While the probe is in flight, everything else is refused.
			if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
				t.Fatalf("second call during probe = %v, want ErrOpen", err)
			}
			b.Report(gen, tc.probeOK)
			if got := b.State(); got != tc.want {
				t.Fatalf("state after probe(ok=%v) = %v, want %v", tc.probeOK, got, tc.want)
			}
			if tc.probeOK {
				if got := b.Stats().Recoveries; got != 1 {
					t.Fatalf("recoveries = %d, want 1", got)
				}
				// A recovered breaker admits traffic again.
				if _, err := b.Allow(); err != nil {
					t.Fatalf("Allow() after recovery = %v", err)
				}
			} else {
				if got := b.Stats().Trips; got != 2 {
					t.Fatalf("trips = %d, want 2 (initial + re-open)", got)
				}
			}
		})
	}
}

// TestHalfOpenProbeLost covers the dropped-probe escape hatch: if a
// probe's outcome never comes back, a fresh probe is admitted after
// another cooldown — under a NEW generation, so the lost probe's late
// report is ignored.
func TestHalfOpenProbeLost(t *testing.T) {
	clock := newTickClock()
	b := New(1, time.Second, clock.Now)
	report(t, b, false) // trip
	clock.Advance(time.Second)

	lostGen, err := b.Allow() // probe 1: its caller will vanish
	if err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	clock.Advance(time.Second) // probe window lapses with no Report

	gen2, err := b.Allow() // probe 2 admitted under a fresh generation
	if err != nil {
		t.Fatalf("replacement probe refused: %v", err)
	}
	if gen2 == lostGen {
		t.Fatalf("replacement probe reused generation %d", lostGen)
	}
	b.Report(lostGen, false) // the straggler finally fails — stale, ignored
	if b.State() != HalfOpen {
		t.Fatalf("stale probe report changed state to %v", b.State())
	}
	b.Report(gen2, true)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after live probe succeeded", b.State())
	}
}

// TestGenerationReset tables stale-outcome handling: a call admitted
// under one generation cannot move a state machine that has since
// transitioned.
func TestGenerationReset(t *testing.T) {
	t.Run("stale failure cannot re-trip a recovered breaker", func(t *testing.T) {
		clock := newTickClock()
		b := New(1, time.Second, clock.Now)
		staleGen, _ := b.Allow() // admitted while closed, will be slow
		report(t, b, false)      // a faster call trips the breaker
		clock.Advance(time.Second)
		probeGen, err := b.Allow()
		if err != nil {
			t.Fatalf("probe refused: %v", err)
		}
		b.Report(probeGen, true) // recovered
		b.Report(staleGen, false)
		if b.State() != Closed {
			t.Fatalf("stale failure re-tripped: state = %v", b.State())
		}
	})
	t.Run("stale success cannot re-close a re-opened breaker", func(t *testing.T) {
		clock := newTickClock()
		b := New(1, time.Second, clock.Now)
		report(t, b, false) // trip
		clock.Advance(time.Second)
		probeGen, err := b.Allow()
		if err != nil {
			t.Fatalf("probe refused: %v", err)
		}
		b.Report(probeGen, false) // probe failed: re-opened, gen bumped
		b.Report(probeGen, true)  // duplicate/late success — stale, ignored
		if b.State() != Open {
			t.Fatalf("stale success re-closed: state = %v", b.State())
		}
	})
}

// TestGenerationResetUnderConcurrency hammers one breaker from many
// goroutines through trip/recover cycles under the race detector: the
// invariants are that Allow/Report never deadlock, panic, or corrupt
// the counters, and that the breaker ends recoverable.
func TestGenerationResetUnderConcurrency(t *testing.T) {
	clock := newTickClock()
	b := New(3, time.Millisecond, clock.Now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				gen, err := b.Allow()
				if err != nil {
					continue
				}
				// Bursty outcomes — 8 failures then 8 successes per
				// goroutine — so trips and recoveries interleave even
				// without fine scheduler interleaving.
				b.Report(gen, (i/8)%2 == 1)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
		default:
			clock.Advance(time.Millisecond)
			continue
		}
		break
	}
	// Whatever state the storm left behind, the breaker must recover
	// with successes and an advancing clock.
	for i := 0; i < 10 && b.State() != Closed; i++ {
		clock.Advance(time.Millisecond)
		if gen, err := b.Allow(); err == nil {
			b.Report(gen, true)
		}
	}
	if b.State() != Closed {
		t.Fatalf("breaker stuck in %v after recovery attempts", b.State())
	}
	st := b.Stats()
	if st.Trips == 0 || st.Recoveries == 0 {
		t.Fatalf("storm exercised no transitions: %+v", st)
	}
}

// fakeDoer answers per-host from a script of outcomes.
type fakeDoer struct {
	mu    sync.Mutex
	fail  map[string]bool // host → currently failing?
	calls map[string]int
}

func (d *fakeDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.calls == nil {
		d.calls = make(map[string]int)
	}
	host := req.URL.Host
	d.calls[host]++
	if d.fail[host] {
		return nil, fmt.Errorf("dial %s: connection refused", host)
	}
	return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader("ok"))}, nil
}

func (d *fakeDoer) setFail(host string, v bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fail == nil {
		d.fail = make(map[string]bool)
	}
	d.fail[host] = v
}

// TestWrapPerHost verifies the Doer decorator: failures to one host
// open only that host's breaker, ErrOpen short-circuits without hitting
// the inner doer, and recovery re-admits traffic.
func TestWrapPerHost(t *testing.T) {
	clock := newTickClock()
	g := NewGroup(2, time.Second, clock.Now)
	inner := &fakeDoer{}
	d := Wrap(inner, g)
	inner.setFail("bad", true)

	get := func(host string) error {
		req, _ := http.NewRequest("GET", "http://"+host+"/x", nil)
		resp, err := d.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		return err
	}

	for i := 0; i < 2; i++ {
		if err := get("bad"); err == nil {
			t.Fatal("want transport error from failing host")
		}
	}
	if st := g.For("bad").State(); st != Open {
		t.Fatalf("bad host breaker = %v, want open", st)
	}
	// Open breaker short-circuits: the inner doer is not called.
	before := inner.calls["bad"]
	if err := get("bad"); !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if inner.calls["bad"] != before {
		t.Fatal("open breaker still reached the inner doer")
	}
	// The healthy host is unaffected.
	if err := get("good"); err != nil {
		t.Fatalf("good host: %v", err)
	}
	if st := g.For("good").State(); st != Closed {
		t.Fatalf("good host breaker = %v, want closed", st)
	}
	// Host heals; after the cooldown one probe succeeds and re-closes.
	inner.setFail("bad", false)
	clock.Advance(time.Second)
	if err := get("bad"); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if st := g.For("bad").State(); st != Closed {
		t.Fatalf("bad host breaker after recovery = %v, want closed", st)
	}
	stats := g.Stats()
	if stats.Trips != 1 || stats.Recoveries != 1 || stats.Rejections == 0 {
		t.Fatalf("group stats = %+v", stats)
	}
	states := g.States()
	if states["bad"] != "closed" || states["good"] != "closed" {
		t.Fatalf("states = %v", states)
	}
}

// cancelDoer holds every call until its request is cancelled, like a long
// poll the peer has parked.
type cancelDoer struct{ entered chan struct{} }

func (d cancelDoer) Do(req *http.Request) (*http.Response, error) {
	d.entered <- struct{}{}
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// TestWrapIgnoresCallerCancellation: a call abandoned by its own caller is
// no verdict on the peer — it neither trips a closed breaker nor fails a
// half-open probe — while a deadline the peer ran into still counts.
func TestWrapIgnoresCallerCancellation(t *testing.T) {
	g := NewGroup(1, time.Second, newTickClock().Now)
	inner := cancelDoer{entered: make(chan struct{})}
	d := Wrap(inner, g)

	do := func(ctx context.Context) error {
		req, _ := http.NewRequestWithContext(ctx, "GET", "http://peer/x", nil)
		_, err := d.Do(req)
		return err
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error)
		go func() { errc <- do(ctx) }()
		<-inner.entered
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v", err)
		}
	}
	if st := g.For("peer").State(); st != Closed {
		t.Fatalf("three cancelled calls left the breaker %v, want closed (threshold 1)", st)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	go func() { <-inner.entered }()
	if err := do(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call returned %v", err)
	}
	if st := g.For("peer").State(); st != Open {
		t.Fatalf("a call that ran out its deadline left the breaker %v, want open", st)
	}
}
