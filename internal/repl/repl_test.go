package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prorp/internal/faults"
	"prorp/internal/wal"
)

func TestParseRole(t *testing.T) {
	for s, want := range map[string]Role{"primary": RolePrimary, "": RolePrimary, "replica": RoleReplica} {
		got, err := ParseRole(s)
		if err != nil || got != want {
			t.Fatalf("ParseRole(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseRole("standby"); err == nil {
		t.Fatal("ParseRole accepted garbage")
	}
	if RolePrimary.String() != "primary" || RoleReplica.String() != "replica" {
		t.Fatal("role strings")
	}
	if s := Role(7).String(); s != "Role(7)" {
		t.Fatalf("unknown role renders %q", s)
	}
}

func TestRestoreNode(t *testing.T) {
	// A demoted primary must come back fenced, at its persisted epoch.
	p := RestoreNode(RolePrimary, 4, true)
	if p.Epoch() != 4 || !p.Fenced() || p.CanAcceptWrites() {
		t.Fatalf("restored fenced primary: epoch=%d fenced=%v canWrite=%v", p.Epoch(), p.Fenced(), p.CanAcceptWrites())
	}
	// The fence flag only means something on a primary: a replica never
	// acks writes anyway, and restoring it fenced would survive a later
	// promotion the wrong way.
	r := RestoreNode(RoleReplica, 4, true)
	if r.Fenced() || r.CanAcceptWrites() {
		t.Fatalf("restored replica: fenced=%v canWrite=%v", r.Fenced(), r.CanAcceptWrites())
	}
	if st := stepNode(t, r, Input{Kind: KindPromote}); st.Epoch != 5 || !r.CanAcceptWrites() {
		t.Fatalf("promoting restored replica: epoch=%d canWrite=%v", st.Epoch, r.CanAcceptWrites())
	}
	// Epoch 0 on disk is a node that never persisted: genesis epoch 1.
	if n := RestoreNode(RolePrimary, 0, false); n.Epoch() != 1 {
		t.Fatalf("restored genesis epoch = %d", n.Epoch())
	}
}

func TestLagSecondsEdges(t *testing.T) {
	f := NewFollower(FollowerConfig{Node: NewNode(RoleReplica, 1)}, wal.Cursor{})
	// No applied record yet: lag is unknown, reported as zero.
	if got := f.LagSeconds(time.Unix(50, 0)); got != 0 {
		t.Fatalf("lag before first record = %v", got)
	}
	f.mu.Lock()
	f.lastAppliedUnix = 40
	f.caughtUp = false
	f.mu.Unlock()
	if got := f.LagSeconds(time.Unix(50, 0)); got != 10 {
		t.Fatalf("lag = %v, want 10", got)
	}
	// Clock skew (record timestamped ahead of now) clamps to zero.
	if got := f.LagSeconds(time.Unix(30, 0)); got != 0 {
		t.Fatalf("skewed lag = %v, want 0", got)
	}
}

// stepNode runs one input through a driver over n, so the node changes
// only the way it does in production: durably, then installed.
func stepNode(t *testing.T, n *Node, in Input) State {
	t.Helper()
	d := NewDriver(DriverConfig{ID: "self", Addr: "http://self", Node: n})
	d.Start()
	defer d.Stop()
	st, _, err := d.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNodeEpochFencing(t *testing.T) {
	p := NewNode(RolePrimary, 0)
	if p.Epoch() != 1 || !p.CanAcceptWrites() || p.Fenced() {
		t.Fatalf("genesis primary: epoch=%d canWrite=%v fenced=%v", p.Epoch(), p.CanAcceptWrites(), p.Fenced())
	}
	// Promote on an unfenced primary is a no-op: it already owns the epoch.
	if st := stepNode(t, p, Input{Kind: KindPromote}); st.Epoch != 1 {
		t.Fatalf("idempotent promote bumped epoch to %d", st.Epoch)
	}
	// Observing its own or an older epoch changes nothing.
	for _, e := range []uint64{0, 1} {
		if stepNode(t, p, Input{Kind: KindEpoch, Msg: Message{Epoch: e}}); p.Fenced() || p.Epoch() != 1 {
			t.Fatalf("observing epoch %d changed the node", e)
		}
	}
	// A higher epoch fences the primary, permanently.
	if stepNode(t, p, Input{Kind: KindEpoch, Msg: Message{Epoch: 3}}); !p.Fenced() || p.CanAcceptWrites() || p.Epoch() != 3 {
		t.Fatalf("after observing epoch 3: fenced=%v canWrite=%v epoch=%d", p.Fenced(), p.CanAcceptWrites(), p.Epoch())
	}
	// Promoting a fenced primary starts a fresh epoch and unfences.
	if st := stepNode(t, p, Input{Kind: KindPromote}); st.Epoch != 4 || !p.CanAcceptWrites() || p.Fenced() {
		t.Fatalf("promote after fence: epoch=%d canWrite=%v fenced=%v", st.Epoch, p.CanAcceptWrites(), p.Fenced())
	}

	r := NewNode(RoleReplica, 1)
	if r.CanAcceptWrites() {
		t.Fatal("replica accepts writes")
	}
	// A replica adopts higher epochs without raising the fence flag.
	if stepNode(t, r, Input{Kind: KindFence, Msg: Message{Epoch: 9}}); r.Fenced() || r.Epoch() != 9 {
		t.Fatalf("replica observe: fenced=%v epoch=%d", r.Fenced(), r.Epoch())
	}
	if st := stepNode(t, r, Input{Kind: KindPromote}); st.Epoch != 10 || r.Role() != RolePrimary || !r.CanAcceptWrites() {
		t.Fatalf("replica promote: epoch=%d role=%v", st.Epoch, r.Role())
	}
}

// miniPrimary implements the primary's stream endpoint straight over a
// wal.Journal — the same protocol internal/server serves, the park
// included — so follower tests exercise the real wire format. A caught-up
// poll is held until the journal has a record, the request is cancelled, or
// park elapses (then 204); every answered poll is counted.
type miniPrimary struct {
	mu     sync.Mutex
	j      *wal.Journal
	epoch  uint64
	park   time.Duration // 0 = miniPark
	polls  int           // answered polls
	parked int           // polls held open right now
	after  wal.Cursor    // ?after of the poll parked last
}

// miniPark is long enough that a test which finishes while a poll is parked
// proves nothing waited for the park, and short enough to keep 204s coming.
const miniPark = 50 * time.Millisecond

func (p *miniPrimary) setEpoch(e uint64) {
	p.mu.Lock()
	p.epoch = e
	p.mu.Unlock()
}

func (p *miniPrimary) count() (polls, parked int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.polls, p.parked
}

func (p *miniPrimary) lastAfter() wal.Cursor {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.after
}

func (p *miniPrimary) Do(req *http.Request) (*http.Response, error) {
	q := req.URL.Query()
	c, err := wal.ParseCursor(q.Get("after"))
	if err != nil {
		return nil, err
	}
	max, _ := strconv.Atoi(q.Get("max"))
	p.mu.Lock()
	park := p.park
	p.mu.Unlock()
	if park == 0 {
		park = miniPark
	}
	deadline := time.NewTimer(park)
	defer deadline.Stop()

	var (
		data        []byte
		start, next wal.Cursor
		rerr        error
	)
	for expired := false; !expired; {
		tail := p.j.TailChanged()
		data, start, next, rerr = p.j.ReadAfter(c, max)
		if rerr != nil || len(data) > 0 || start != c {
			break
		}
		p.mu.Lock()
		p.parked++
		p.after = c
		p.mu.Unlock()
		select {
		case <-tail:
		case <-deadline.C:
			expired = true
		case <-req.Context().Done():
		}
		p.mu.Lock()
		p.parked--
		p.mu.Unlock()
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.polls++
	rec := httptest.NewRecorder()
	rec.Header().Set(HeaderEpoch, strconv.FormatUint(p.epoch, 10))
	switch {
	case errors.Is(rerr, wal.ErrCursorCompacted):
		rec.WriteHeader(http.StatusGone)
	case errors.Is(rerr, wal.ErrCursorAhead):
		rec.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
	case rerr != nil:
		rec.WriteHeader(http.StatusInternalServerError)
	case len(data) == 0:
		if start != c {
			rec.Header().Set(HeaderNextCursor, start.String())
		}
		rec.WriteHeader(http.StatusNoContent)
	default:
		rec.Header().Set(HeaderCursor, start.String())
		rec.Header().Set(HeaderNextCursor, next.String())
		rec.Header().Set(HeaderLagRecords, strconv.FormatInt(p.j.TailGapRecords(next), 10))
		rec.Write(data)
	}
	return rec.Result(), nil
}

func openJournal(t *testing.T) *wal.Journal {
	t.Helper()
	j, err := wal.Open(wal.Config{Dir: t.TempDir(), Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func appendLogins(t *testing.T, j *wal.Journal, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := j.Append(wal.Record{Type: wal.RecordLogin, ID: int64(start + i), Unix: int64(start + i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// countingClock counts the follower's back-off sleeps and keeps them short.
type countingClock struct{ sleeps atomic.Int64 }

func (c *countingClock) Now() time.Time { return time.Now() }

func (c *countingClock) Sleep(d time.Duration) {
	c.sleeps.Add(1)
	time.Sleep(min(d, time.Millisecond))
}

// hostDoer routes a request to the miniPrimary bound to its URL host.
type hostDoer map[string]*miniPrimary

func (d hostDoer) Do(req *http.Request) (*http.Response, error) {
	p := d[req.URL.Host]
	if p == nil {
		return nil, fmt.Errorf("connection refused: %s", req.URL.Host)
	}
	return p.Do(req)
}

type collector struct {
	mu      sync.Mutex
	ids     []int64
	batches []int // records handed to each Apply call
}

func (c *collector) apply(recs []wal.Record) (int, error) {
	c.mu.Lock()
	for _, rec := range recs {
		c.ids = append(c.ids, rec.ID)
	}
	c.batches = append(c.batches, len(recs))
	c.mu.Unlock()
	return len(recs), nil
}

func (c *collector) snapshot() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64{}, c.ids...)
}

func TestFollowerStreamsAndTracksLag(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 10)
	primary := &miniPrimary{j: j, epoch: 1}

	var got collector
	var persisted struct {
		mu  sync.Mutex
		cur wal.Cursor
	}
	f := NewFollower(FollowerConfig{
		PrimaryURL:    "http://primary",
		Doer:          primary,
		PollInterval:  time.Millisecond,
		MaxBatchBytes: int(3 * wal.FrameSize), // force multiple batches
		Node:          NewNode(RoleReplica, 1),
		Apply:         got.apply,
		Persist: func(c wal.Cursor, sync bool) error {
			persisted.mu.Lock()
			persisted.cur = c
			persisted.mu.Unlock()
			return nil
		},
		Logf: t.Logf,
	}, wal.Cursor{})
	f.Start()
	defer f.Stop()

	waitFor(t, "initial catch-up", func() bool { return f.Stats().Records == 10 && f.LagRecords() == 0 })
	appendLogins(t, j, 10, 5)
	waitFor(t, "tail catch-up", func() bool { return f.Stats().Records == 15 && f.LagRecords() == 0 })
	waitFor(t, "a caught-up (204) poll", func() bool { return f.Stats().CaughtUpPolls >= 1 })
	f.Stop()

	ids := got.snapshot()
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("record %d has id %d: stream out of order (%v)", i, id, ids)
		}
	}
	if st := f.Stats(); st.CaughtUpPolls == 0 || st.Batches < 2 {
		t.Fatalf("stats %+v: want caught-up polls and multiple batches", st)
	}
	// One Apply call per streamed batch, carrying the whole batch.
	got.mu.Lock()
	calls, most := len(got.batches), 0
	for _, n := range got.batches {
		most = max(most, n)
	}
	got.mu.Unlock()
	if uint64(calls) != f.Stats().Batches || most != 3 {
		t.Fatalf("%d Apply calls for %d batches, largest %d records; want one call per batch, up to the 3-frame cap", calls, f.Stats().Batches, most)
	}
	persisted.mu.Lock()
	defer persisted.mu.Unlock()
	if persisted.cur != f.Cursor() {
		t.Fatalf("persisted %v, follower cursor %v", persisted.cur, f.Cursor())
	}
	if f.LagSeconds(time.Unix(100, 0)) != 0 {
		t.Fatal("caught-up follower reports nonzero lag seconds")
	}
}

func TestFollowerAdoptsPrimaryEpoch(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 1)
	primary := &miniPrimary{j: j, epoch: 7}
	node := NewNode(RoleReplica, 1)
	var persisted []uint64
	var mu sync.Mutex
	d := NewDriver(DriverConfig{ID: "r", Node: node, Persist: func(st State) error {
		mu.Lock()
		persisted = append(persisted, st.Epoch)
		mu.Unlock()
		return nil
	}})
	d.Start()
	defer d.Stop()
	var got collector
	f := NewFollower(FollowerConfig{
		PrimaryURL: "http://primary", Doer: primary, PollInterval: time.Millisecond,
		Node: node, Apply: got.apply, Adopt: d.Adopt,
	}, wal.Cursor{})
	f.Start()
	defer f.Stop()
	waitFor(t, "epoch adoption", func() bool { return node.Epoch() == 7 && f.Stats().Records == 1 })
	mu.Lock()
	defer mu.Unlock()
	if len(persisted) != 1 || persisted[0] != 7 {
		t.Fatalf("persisted epochs %v, want the adopted 7 once", persisted)
	}
}

func TestFollowerIgnoresStalePrimary(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 3)
	primary := &miniPrimary{j: j, epoch: 1}
	var got collector
	f := NewFollower(FollowerConfig{
		PrimaryURL: "http://primary", Doer: primary, PollInterval: time.Millisecond,
		Node:  NewNode(RoleReplica, 5), // follower already knows epoch 5
		Apply: got.apply,
	}, wal.Cursor{})
	f.Start()
	defer f.Stop()
	waitFor(t, "stale primary rejected", func() bool { return f.Stats().StreamErrors >= 3 })
	if n := f.Stats().Records; n != 0 {
		t.Fatalf("follower applied %d records from a stale-epoch primary", n)
	}
	if f.LastError() == "" {
		t.Fatal("no lastErr recorded")
	}
	// The primary catches up to the new epoch; streaming resumes.
	primary.setEpoch(5)
	waitFor(t, "recovery after epoch catch-up", func() bool { return f.Stats().Records == 3 })
}

func TestFollowerResyncsOnCompactedCursor(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 5)
	boundary, err := j.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	appendLogins(t, j, 5, 5)
	if _, err := j.CompactBefore(boundary); err != nil {
		t.Fatal(err)
	}
	primary := &miniPrimary{j: j, epoch: 2}

	var got collector
	resyncs := 0
	var mu sync.Mutex
	f := NewFollower(FollowerConfig{
		PrimaryURL: "http://primary", Doer: primary, PollInterval: time.Millisecond,
		Node: NewNode(RoleReplica, 1), Apply: got.apply,
		Resync: func(_ string, primaryEpoch uint64) (wal.Cursor, uint64, error) {
			mu.Lock()
			resyncs++
			mu.Unlock()
			if primaryEpoch != 2 {
				return wal.Cursor{}, 0, fmt.Errorf("resync saw epoch %d", primaryEpoch)
			}
			return wal.Cursor{Seg: boundary, Off: wal.SegmentDataStart}, 2, nil
		},
	}, wal.Cursor{}) // zero cursor: genesis is compacted, must resync
	f.Start()
	defer f.Stop()

	waitFor(t, "resync + catch-up", func() bool { return f.Stats().Records == 5 && f.LagRecords() == 0 })
	ids := got.snapshot()
	if ids[0] != 5 {
		t.Fatalf("post-resync stream started at id %d, want 5 (%v)", ids[0], ids)
	}
	if f.Stats().Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", f.Stats().Resyncs)
	}
	mu.Lock()
	defer mu.Unlock()
	if resyncs != 1 {
		t.Fatalf("resync callback ran %d times", resyncs)
	}
}

// TestFollowerResyncOnStart: a follower whose host declares pre-existing
// local state (a rebooted ex-primary) resyncs before its first stream
// poll — even though its zero cursor would stream fine from genesis — and
// keeps retrying the resync until it succeeds. No record below the
// resynced cursor is ever applied on top of the local state.
func TestFollowerResyncOnStart(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 5)
	boundary, err := j.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	appendLogins(t, j, 5, 3)
	primary := &miniPrimary{j: j, epoch: 2}

	var got collector
	attempts := 0
	var mu sync.Mutex
	f := NewFollower(FollowerConfig{
		PrimaryURL: "http://primary", Doer: primary, PollInterval: time.Millisecond,
		Node: NewNode(RoleReplica, 1), Apply: got.apply,
		ResyncOnStart: true,
		Resync: func(_ string, primaryEpoch uint64) (wal.Cursor, uint64, error) {
			mu.Lock()
			attempts++
			n := attempts
			mu.Unlock()
			if n == 1 {
				return wal.Cursor{}, 0, fmt.Errorf("snapshot fetch: partitioned")
			}
			return wal.Cursor{Seg: boundary, Off: wal.SegmentDataStart}, 2, nil
		},
	}, wal.Cursor{}) // zero cursor, but the host said local state exists
	f.Start()
	defer f.Stop()

	waitFor(t, "forced resync + tail catch-up", func() bool {
		return f.Stats().Resyncs == 1 && f.Stats().Records == 3 && f.LagRecords() == 0
	})
	ids := got.snapshot()
	if len(ids) != 3 || ids[0] != 5 {
		t.Fatalf("streamed %v, want only the post-boundary tail 5..7", ids)
	}
	if f.Stats().StreamErrors == 0 {
		t.Fatal("failed first resync attempt not counted as a stream error")
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 2 {
		t.Fatalf("resync attempts = %d, want 2 (one failure, one success)", attempts)
	}
}

func TestFollowerSurvivesCorruptAndCutBatches(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 20)
	primary := &miniPrimary{j: j, epoch: 1}
	inj := faults.NewInjector(42)
	inj.CorruptWrites("http.body", 0.5)
	inj.PartialWrites("http.body", 0.3)

	var got collector
	var clock countingClock
	f := NewFollower(FollowerConfig{
		PrimaryURL:   "http://primary",
		Doer:         faults.NewFaultDoer(primary, inj, nil),
		Clock:        &clock,
		PollInterval: time.Millisecond, MaxBatchBytes: int(4 * wal.FrameSize),
		Node: NewNode(RoleReplica, 1), Apply: got.apply,
		Logf: t.Logf,
	}, wal.Cursor{})
	f.Start()
	defer f.Stop()

	// Damaged batches slow the stream down but never poison it: every
	// record still arrives, in order, exactly once per cursor position.
	waitFor(t, "catch-up through corruption", func() bool { return f.Stats().Records >= 20 && f.LagRecords() == 0 })
	ids := got.snapshot()
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("record %d has id %d: corruption reordered or duplicated the stream (%v)", i, id, ids)
		}
	}
	// The eager re-poll is for answered polls only: every damaged batch
	// still backed off before the next attempt.
	f.Stop()
	st := f.Stats()
	if st.CorruptBatches == 0 {
		t.Fatal("seed 42 damaged no batch: the back-off assertion below is vacuous")
	}
	if n := clock.sleeps.Load(); n < int64(st.CorruptBatches) {
		t.Fatalf("%d damaged batches, %d back-off sleeps: a damaged path is being hammered", st.CorruptBatches, n)
	}
}

func TestFollowerApplyErrorHoldsCursor(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 5)
	primary := &miniPrimary{j: j, epoch: 1}
	var mu sync.Mutex
	journalFail, fail := true, true
	var applied []int64
	f := NewFollower(FollowerConfig{
		PrimaryURL: "http://primary", Doer: primary, PollInterval: time.Millisecond,
		Node: NewNode(RoleReplica, 1),
		Apply: func(recs []wal.Record) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			if journalFail {
				// The journal refused the batch: nothing applied, all of it
				// comes again.
				journalFail = false
				return 0, errors.New("transient journal failure")
			}
			for i, rec := range recs {
				if rec.ID == 3 && fail {
					fail = false
					return i, errors.New("transient apply failure")
				}
				applied = append(applied, rec.ID)
			}
			return len(recs), nil
		},
	}, wal.Cursor{})
	f.Start()
	defer f.Stop()
	waitFor(t, "recovery after apply error", func() bool { return f.Stats().Records == 5 })
	mu.Lock()
	defer mu.Unlock()
	for i, id := range applied {
		if id != int64(i) {
			t.Fatalf("apply order %v: record re-applied or skipped", applied)
		}
	}
	if n := f.Stats().StreamErrors; n != 2 {
		t.Fatalf("%d stream errors, want the journal failure and the apply failure", n)
	}
}

func TestFollowerStopBeforeStart(t *testing.T) {
	f := NewFollower(FollowerConfig{PrimaryURL: "http://primary", Node: NewNode(RoleReplica, 1), Apply: func(recs []wal.Record) (int, error) { return len(recs), nil }}, wal.Cursor{})
	f.Stop() // must not hang or panic
	f.Stop()
}

// TestFollowerParksAndAcksWithoutSleeping is the protocol in one test: a
// caught-up follower holds exactly one poll open at the primary, a record
// appended there reaches it without the park running out, its very next
// poll carries the cursor past that record (the ack), and none of it ever
// touches the clock — PollInterval is left at its 250 ms default, which at
// the parent was the latency of every one of these records.
func TestFollowerParksAndAcksWithoutSleeping(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 3)
	primary := &miniPrimary{j: j, epoch: 1, park: time.Hour}
	var got collector
	var clock countingClock
	f := NewFollower(FollowerConfig{
		PrimaryURL: "http://primary", Doer: primary, Clock: &clock,
		Node: NewNode(RoleReplica, 1), Apply: got.apply,
	}, wal.Cursor{})
	f.Start()
	defer f.Stop()

	parkedAt := func(c wal.Cursor) func() bool {
		return func() bool {
			_, parked := primary.count()
			return parked == 1 && primary.lastAfter() == c
		}
	}
	waitFor(t, "the caught-up poll to park", parkedAt(j.DurableCursor()))
	if f.LagRecords() != 0 || f.LagSeconds(time.Now()) != 0 {
		t.Fatalf("a follower whose poll is parked reports lag %d records / %v s", f.LagRecords(), f.LagSeconds(time.Now()))
	}
	for i := 3; i < 50; i++ {
		appendLogins(t, j, i, 1)
		// The re-poll IS the ack: the primary sees the new cursor without
		// anything else having to happen.
		waitFor(t, "the ack of record "+strconv.Itoa(i), parkedAt(j.DurableCursor()))
	}
	if ids := got.snapshot(); len(ids) != 50 || ids[49] != 49 {
		t.Fatalf("applied %v", ids)
	}
	if polls, _ := primary.count(); polls > 51 {
		t.Fatalf("%d answered polls for 47 records after catch-up, want one each", polls)
	}
	if st := f.Stats(); st.StreamErrors != 0 || st.CaughtUpPolls != 0 {
		t.Fatalf("stats %+v: want no errors and no park run out", st)
	}
	if n := clock.sleeps.Load(); n != 0 {
		t.Fatalf("follower slept %d times on a healthy stream", n)
	}
}

// TestFollowerStopAndSetPrimaryCancelParkedPoll: Stop returns and SetPrimary
// takes effect while the primary is holding the poll open, and the
// cancelled poll is not an error.
func TestFollowerStopAndSetPrimaryCancelParkedPoll(t *testing.T) {
	ja, jb := openJournal(t), openJournal(t)
	appendLogins(t, ja, 0, 2)
	appendLogins(t, jb, 100, 2)
	a := &miniPrimary{j: ja, epoch: 1, park: time.Hour}
	b := &miniPrimary{j: jb, epoch: 1, park: time.Hour}
	parked := func(p *miniPrimary) func() bool {
		return func() bool { _, n := p.count(); return n == 1 }
	}

	var got collector
	var resyncs atomic.Int64
	f := NewFollower(FollowerConfig{
		PrimaryURL: "http://a", Doer: hostDoer{"a": a, "b": b},
		Node: NewNode(RoleReplica, 1), Apply: got.apply,
		Resync: func(string, uint64) (wal.Cursor, uint64, error) {
			resyncs.Add(1)
			return wal.Cursor{Seg: 1, Off: wal.SegmentDataStart}, 1, nil
		},
	}, wal.Cursor{})
	f.Start()
	defer f.Stop()
	waitFor(t, "the poll to park at a", parked(a))

	// Repoint: the poll parked at a is dropped, the resync runs, and the
	// next poll parks at b — none of which waits for a's hour to pass.
	f.SetPrimary("http://b")
	waitFor(t, "the poll to park at b", parked(b))
	if _, n := a.count(); n != 0 {
		t.Fatalf("%d poll(s) still parked at the old primary", n)
	}
	if resyncs.Load() != 1 {
		t.Fatalf("resyncs = %d, want 1", resyncs.Load())
	}
	if ids := got.snapshot(); len(ids) != 4 || ids[2] != 100 {
		t.Fatalf("applied %v, want a's two records then b's", ids)
	}

	f.Stop() // with b holding the poll for an hour: a Stop that waits hangs the test
	if _, n := b.count(); n != 0 {
		t.Fatalf("%d poll(s) still parked after Stop", n)
	}
	if st := f.Stats(); st.StreamErrors != 0 || f.LastError() != "" {
		t.Fatalf("cancelled polls were counted as errors: %+v, %q", st, f.LastError())
	}
}

// TestFollowerLeavesSealedSegmentOn204: when the primary rotates, a
// caught-up follower is told the normalised cursor on its 204, adopts and
// persists it, and so survives the compaction of the segment it had
// finished — no 410, no resync. It never follows a cursor backwards.
func TestFollowerLeavesSealedSegmentOn204(t *testing.T) {
	j := openJournal(t)
	appendLogins(t, j, 0, 4)
	primary := &miniPrimary{j: j, epoch: 1, park: time.Hour}
	var got collector
	var persisted struct {
		sync.Mutex
		cur wal.Cursor
	}
	f := NewFollower(FollowerConfig{
		PrimaryURL: "http://primary", Doer: primary,
		Node: NewNode(RoleReplica, 1), Apply: got.apply,
		Persist: func(c wal.Cursor, _ bool) error {
			persisted.Lock()
			persisted.cur = c
			persisted.Unlock()
			return nil
		},
		Resync: func(string, uint64) (wal.Cursor, uint64, error) {
			return wal.Cursor{}, 0, errors.New("no resync should be needed")
		},
	}, wal.Cursor{})
	f.Start()
	defer f.Stop()
	waitFor(t, "catch-up", func() bool { return f.Cursor() == j.DurableCursor() })

	for round := 0; round < 5; round++ {
		boundary, err := j.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		want := wal.Cursor{Seg: boundary, Off: wal.SegmentDataStart}
		waitFor(t, "the follower to move to "+want.String(), func() bool {
			persisted.Lock()
			defer persisted.Unlock()
			return f.Cursor() == want && persisted.cur == want
		})
		if _, err := j.CompactBefore(boundary); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			appendLogins(t, j, 100+round, 1)
			waitFor(t, "the post-rotation record", func() bool { return f.Cursor() == j.DurableCursor() })
		}
	}
	if st := f.Stats(); st.Resyncs != 0 || st.StreamErrors != 0 {
		t.Fatalf("stats %+v: five rotations + compactions should cost no resync and no error", st)
	}

	// A cursor behind ours on a 204 is not followed.
	behind := httptest.NewRecorder()
	behind.Header().Set(HeaderNextCursor, "1:12")
	behind.WriteHeader(http.StatusNoContent)
	f.Stop()
	at := f.Cursor()
	f.caughtUpAt(behind.Result(), at, 1)
	if f.Cursor() != at {
		t.Fatalf("follower moved backwards from %v to %v", at, f.Cursor())
	}
}
