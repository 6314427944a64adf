package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prorp/internal/obs"
	"prorp/internal/repl"
	"prorp/internal/wal"
)

// The stream protocol, pinned without sleeping: every test below waits on
// an event — the parked gauge, a response, a return — and uses the wall
// clock only as a hang guard. The park deadline runs on Config.Sleep, so a
// test holds it (parkGate) and lets it fire when it chooses. Polls go
// straight into the handler unless the test is about the socket.

// parkGate is a Config.Sleep under which a sleep of exactly park — the
// stream-park deadline — lasts until the test calls fire (or cleanup);
// every other sleep is a nap.
type parkGate struct {
	park time.Duration
	ch   chan struct{}
}

func newParkGate(t *testing.T, park time.Duration) *parkGate {
	g := &parkGate{park: park, ch: make(chan struct{})}
	t.Cleanup(func() { close(g.ch) })
	return g
}

func (g *parkGate) sleep(d time.Duration) {
	if d != g.park {
		napSleep(d)
		return
	}
	<-g.ch
}

// fire ends the pending park deadline.
func (g *parkGate) fire() { g.ch <- struct{}{} }

// streamPoll sends GET /v1/repl/stream?after=<after> into s on its own
// goroutine and delivers the recorded response (nil if ctx was cancelled
// and the handler wrote nothing).
func streamPoll(ctx context.Context, s *Server, after wal.Cursor, epoch uint64) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	req := httptest.NewRequest("GET", "/v1/repl/stream?after="+after.String(), nil).WithContext(ctx)
	req.Header.Set(repl.HeaderEpoch, strconv.FormatUint(epoch, 10))
	req.Header.Set(repl.HeaderNode, "r1")
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		out <- rec
	}()
	return out
}

// await receives from ch under a hang guard.
func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(60 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func waitParked(t *testing.T, s *Server, n int64) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d stream poll(s) to park", n), func() bool { return s.repl.streamParked.Load() == n })
}

// streamPrimary boots a journaled primary holding one database, so the
// active segment has a record and a durable end to park at. Its park
// deadline never fires unless the test fires gate.
func streamPrimary(t *testing.T, mutate func(*Config)) (s *Server, gate *parkGate) {
	t.Helper()
	cfg := replConfig(t.TempDir(), &fakeClock{t: t0})
	cfg.NodeID = "a"
	if mutate != nil {
		mutate(&cfg)
	}
	gate = newParkGate(t, maxStreamPark)
	if cfg.LeaseTTL > 0 {
		gate.park = cfg.LeaseTTL / 3
	}
	cfg.Sleep = gate.sleep
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	code, out := call(t, s, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	return s, gate
}

// TestStreamParkedPollAnsweredByAppend: a caught-up poll is held, counted
// on the parked gauge, and answered by the next acknowledged write with
// that write's record — not by the park running out.
func TestStreamParkedPollAnsweredByAppend(t *testing.T) {
	p, _ := streamPrimary(t, nil)
	end := p.wal.DurableCursor()
	resp := streamPoll(context.Background(), p, end, 1)
	waitParked(t, p, 1)
	if n := sampleValue(t, scrape(t, p), "prorp_repl_stream_parked", nil); n != 1 {
		t.Fatalf("prorp_repl_stream_parked = %v with one poll held, want 1", n)
	}

	code, out := call(t, p, "POST", "/v1/db/1/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	rec := await(t, "the parked poll's answer", resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("parked poll answered %d, want 200 with the new record", rec.Code)
	}
	var got []wal.Record
	if _, torn, err := wal.ScanStream(rec.Body.Bytes(), func(r wal.Record) error { got = append(got, r); return nil }); err != nil || torn ||
		len(got) != 1 || got[0].Type != wal.RecordLogout || got[0].ID != 1 {
		t.Fatalf("parked poll shipped %+v (torn=%v, err=%v), want the logout of database 1", got, torn, err)
	}
	if rec.Header().Get(repl.HeaderCursor) != end.String() || rec.Header().Get(repl.HeaderLagRecords) != "0" {
		t.Fatalf("batch headers %v", rec.Header())
	}
	waitParked(t, p, 0)
}

// TestStreamLeaseGrantEvaluatedAfterPark: what a 204 says about the node is
// read when the park ends. An unfenced primary grants a lease at the
// deadline (min(1s, LeaseTTL/3) on the server's clock — the heartbeat keeps
// flowing); fenced while the poll was parked, it answers with the new epoch
// and NO grant, so the follower's lease runs out and it elects.
func TestStreamLeaseGrantEvaluatedAfterPark(t *testing.T) {
	p, gate := streamPrimary(t, func(cfg *Config) {
		cfg.LeaseTTL = 1500 * time.Millisecond
		cfg.SelfAddr = "http://a"
		cfg.ReplPeers = map[string]string{"b": "http://b"}
		cfg.ReplDoer = &mapDoer{} // b is down: announces are refused
	})
	if got := p.streamPark(); got != 500*time.Millisecond {
		t.Fatalf("streamPark = %v, want LeaseTTL/3", got)
	}
	end := p.wal.DurableCursor()

	resp := streamPoll(context.Background(), p, end, 1)
	waitParked(t, p, 1)
	gate.fire()
	rec := await(t, "the 204 at the deadline", resp)
	if rec.Code != http.StatusNoContent || rec.Header().Get(repl.HeaderLeaseTTL) != "1500" || rec.Header().Get(repl.HeaderEpoch) != "1" {
		t.Fatalf("unfenced primary at the deadline: %d %v, want 204 granting 1500 ms at epoch 1", rec.Code, rec.Header())
	}
	if rec.Header().Get(repl.HeaderNextCursor) != "" {
		t.Fatalf("a 204 for a cursor that did not move named %q", rec.Header().Get(repl.HeaderNextCursor))
	}

	resp = streamPoll(context.Background(), p, end, 1)
	waitParked(t, p, 1)
	code, out := call(t, p, "POST", "/v1/repl/fence", `{"epoch":2}`)
	wantStatus(t, code, http.StatusOK, out)
	if n := p.repl.streamParked.Load(); n != 1 {
		t.Fatalf("the fence let go of the parked poll (parked = %d): the test below would prove nothing", n)
	}
	gate.fire()
	rec = await(t, "the fenced primary's 204", resp)
	if rec.Code != http.StatusNoContent || rec.Header().Get(repl.HeaderEpoch) != "2" {
		t.Fatalf("fenced while parked: %d, epoch header %q; want 204 at epoch 2", rec.Code, rec.Header().Get(repl.HeaderEpoch))
	}
	if ttl := rec.Header().Get(repl.HeaderLeaseTTL); ttl != "" {
		t.Fatalf("a primary fenced while the poll was parked still granted a %s ms lease", ttl)
	}
	// A follower that has not heard of epoch 2 is told at once, not at the
	// next deadline (nobody fires it); one that has, parks.
	rec = await(t, "the answer to a stale-epoch poll", streamPoll(context.Background(), p, end, 1))
	if rec.Code != http.StatusNoContent || rec.Header().Get(repl.HeaderEpoch) != "2" {
		t.Fatalf("stale-epoch poll: %d, epoch %q", rec.Code, rec.Header().Get(repl.HeaderEpoch))
	}
	ctx, cancel := context.WithCancel(context.Background())
	resp = streamPoll(ctx, p, end, 2)
	waitParked(t, p, 1)
	cancel()
	await(t, "the current-epoch poll to be abandoned", resp)
	waitParked(t, p, 0)
}

// TestStreamParkReleasedByDisconnectAndShutdown: a parked handler returns
// when its client goes away — in process and over a real socket — and when
// the server is closed or killed; Close and Kill do not wait out a park.
func TestStreamParkReleasedByDisconnectAndShutdown(t *testing.T) {
	t.Run("context", func(t *testing.T) {
		p, _ := streamPrimary(t, nil)
		ctx, cancel := context.WithCancel(context.Background())
		resp := streamPoll(ctx, p, p.wal.DurableCursor(), 1)
		waitParked(t, p, 1)
		cancel()
		if rec := await(t, "the handler to return", resp); rec.Header().Get(repl.HeaderLeaseTTL) != "" {
			t.Fatalf("abandoned poll answered %d %v", rec.Code, rec.Header())
		}
		waitParked(t, p, 0)
	})
	t.Run("socket", func(t *testing.T) {
		p, _ := streamPrimary(t, nil)
		ts := httptest.NewServer(p)
		defer ts.Close() // blocks on in-flight requests: a stuck handler hangs the test here
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/repl/stream?after="+p.wal.DurableCursor().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		waitParked(t, p, 1)
		cancel()
		if err := await(t, "the client to give up", errc); err == nil {
			t.Fatal("cancelled poll got an answer")
		}
		waitParked(t, p, 0)
	})
	for name, shut := range map[string]func(*Server){
		"close": func(s *Server) { s.Close() },
		"kill":  (*Server).Kill,
	} {
		t.Run(name, func(t *testing.T) {
			p, _ := streamPrimary(t, nil)
			resp := streamPoll(context.Background(), p, p.wal.DurableCursor(), 1)
			waitParked(t, p, 1)
			done := make(chan struct{})
			go func() { shut(p); close(done) }()
			rec := await(t, "the parked poll to be let go", resp)
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("poll parked across %s answered %d, want 503", name, rec.Code)
			}
			await(t, name+" to return", done)
			// A poll arriving after the fact is refused, not parked on a
			// journal that will never move again.
			rec = await(t, "the late poll's answer", streamPoll(context.Background(), p, wal.Cursor{}, 1))
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("poll after %s answered %d, want 503", name, rec.Code)
			}
		})
	}
}

// quorumPair boots a primary that waits for one replica ack per write and
// the replica that gives it, wired in process. The replica's poll interval
// is left at its default (250 ms) on purpose.
func quorumPair(t *testing.T, replicaSleep func(time.Duration)) (p, r *Server, clock *stepClock) {
	t.Helper()
	return quorumPairWith(t, func(rcfg *Config) { rcfg.Sleep = replicaSleep })
}

// quorumPairWith is quorumPair with the replica's config open to the test.
func quorumPairWith(t *testing.T, mutateReplica func(*Config)) (p, r *Server, clock *stepClock) {
	t.Helper()
	clock = &stepClock{t: t0}
	net := &mapDoer{}
	pcfg := replConfig(t.TempDir(), clock)
	pcfg.QuorumAcks = 1
	pcfg.NodeID = "a"
	p, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	net.bind("a", p)

	rcfg := replConfig(t.TempDir(), clock)
	rcfg.Role = repl.RoleReplica
	rcfg.PrimaryAddr = "http://a"
	rcfg.ReplDoer = net
	rcfg.NodeID = "r1"
	mutateReplica(&rcfg)
	r, err = New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return p, r, clock
}

// TestQuorumAckedWritesNeverSleepOnTheFollower is the trap pinned shut: an
// operator turns on -quorum-acks 1 and changes nothing else. Two hundred
// writes through that pair are each acknowledged by the replica's next
// poll; its clock is never asked to sleep — at the parent every one of them
// slept the 250 ms default — and each wait is on /v1/traces and /metrics.
func TestQuorumAckedWritesNeverSleepOnTheFollower(t *testing.T) {
	var sleeps atomic.Int64
	p, r, clock := quorumPair(t, func(d time.Duration) { sleeps.Add(1); napSleep(d) })

	code, out := call(t, p, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	for i := 0; i < 200; i++ {
		verb := "logout"
		if i%2 == 1 {
			verb = "login"
		}
		clock.Step()
		code, out = call(t, p, "POST", "/v1/db/1/"+verb, "")
		wantStatus(t, code, http.StatusOK, out)
	}
	waitUntil(t, "the replica to hold every write", func() bool {
		return bytes.Equal(archive(t, p), archive(t, r))
	})
	if n := sleeps.Load(); n != 0 {
		t.Fatalf("the follower's clock slept %d times across 201 quorum-acked writes, want 0", n)
	}
	if st := r.followerRef().Stats(); st.StreamErrors != 0 || st.Records != 201 {
		t.Fatalf("follower stats %+v", st)
	}

	samples := scrape(t, p)
	if n := sampleValue(t, samples, "prorp_repl_quorum_wait_duration_seconds_count", nil); n != 201 {
		t.Fatalf("quorum wait histogram holds %v waits, want 201", n)
	}
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traces", nil))
	if !strings.Contains(rec.Body.String(), `"repl.quorum_wait"`) {
		t.Fatalf("no repl.quorum_wait span on /v1/traces: %s", rec.Body.String())
	}
	code, out = call(t, r, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["replication_lag_records"] != float64(0) || out["replication_lag_seconds"] != float64(0) {
		t.Fatalf("caught-up replica with its poll parked reports lag: %v", out)
	}

	// The replica's half of each wait is on ITS /v1/traces and /metrics: one
	// repl.apply_batch span per batch with the journal write and the fleet
	// apply under it, and the batch sizes.
	var apply *obs.TraceRecord
	for _, tr := range r.tracer.Slowest() {
		if tr.Root == "repl.apply_batch" {
			apply = &tr
			break
		}
	}
	if apply == nil {
		t.Fatal("no repl.apply_batch trace on the replica")
	}
	children := map[string]bool{}
	for _, sp := range apply.Spans {
		if sp.ParentID != "" {
			children[sp.Name] = true
		}
	}
	if !children["wal.append"] || !children["fleet.apply"] || len(apply.Spans) != 3 {
		t.Fatalf("repl.apply_batch spans %+v, want wal.append and fleet.apply under the root", apply.Spans)
	}
	samples = scrape(t, r)
	st := r.followerRef().Stats()
	if n := sampleValue(t, samples, "prorp_repl_batch_records_count", nil); n != float64(st.Batches) {
		t.Fatalf("prorp_repl_batch_records holds %v batches, the follower applied %d", n, st.Batches)
	}
	if n := sampleValue(t, samples, "prorp_repl_batch_records_sum", nil); n != 201 {
		t.Fatalf("prorp_repl_batch_records sums to %v records, want 201", n)
	}
}

// TestStreamRotationDoesNotStrandCaughtUpFollower: each snapshot rotates
// the journal and compacts the segment the follower has just finished. The
// 204 names the cursor in the new segment, the follower moves there, and
// five snapshots — with and without writes in between — cost no resync.
func TestStreamRotationDoesNotStrandCaughtUpFollower(t *testing.T) {
	p, r, clock := quorumPair(t, napSleep)
	code, out := call(t, p, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	persisted := func() wal.Cursor {
		r.replMu.Lock()
		defer r.replMu.Unlock()
		return r.replCursor
	}

	for round := 0; round < 5; round++ {
		if round%2 == 0 {
			clock.Step()
			code, out = call(t, p, "POST", "/v1/db/1/logout", "")
			wantStatus(t, code, http.StatusOK, out)
			clock.Step()
			code, out = call(t, p, "POST", "/v1/db/1/login", "")
			wantStatus(t, code, http.StatusOK, out)
		}
		code, out = call(t, p, "POST", "/v1/ops/snapshot", "")
		wantStatus(t, code, http.StatusOK, out)
		// The follower has left the compacted segment when its cursor — the
		// one it would reboot with — is the primary's durable end.
		waitUntil(t, "the follower to follow the rotation", func() bool {
			return r.followerRef().Cursor() == p.wal.DurableCursor() && persisted() == p.wal.DurableCursor()
		})
	}
	clock.Step()
	code, out = call(t, p, "POST", "/v1/db/1/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	waitUntil(t, "the replica to converge", func() bool { return bytes.Equal(archive(t, p), archive(t, r)) })
	if st := r.followerRef().Stats(); st.Resyncs != 0 || st.StreamErrors != 0 {
		t.Fatalf("follower stats %+v: five snapshots should cost no resync and no error", st)
	}
	if m := p.wal.Metrics(); m.Compacted < 5 {
		t.Fatalf("only %d segments compacted: the test did not exercise the strand", m.Compacted)
	}
}

// BenchmarkQuorumAckedLogin is the replica cycle in one number: a primary
// and a replica on loopback listeners, temp-dir journals fsynced on every
// append, one replica ack per write, the poll interval left at its default.
// Each op is one decision write; every writer owns one database and
// alternates its logouts and logins, to keep the stream legal. writers=1 is
// the cycle itself — polls/op is how many stream polls the follower spent on
// a write, one when the re-poll is the ack — and writers=8 is where batching
// shows: records/batch is how many records one streamed batch (one replica
// journal write) carried, fsyncs/batch how many replica fsyncs it cost.
func BenchmarkQuorumAckedLogin(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) { benchQuorumAckedLogin(b, writers) })
	}
}

func benchQuorumAckedLogin(b *testing.B, writers int) {
	clock := &stepClock{t: t0}
	pcfg := replConfig(b.TempDir(), clock)
	pcfg.WALSegmentBytes = 0 // default: rotation is not what is being timed
	pcfg.Sleep = nil
	pcfg.QuorumAcks = 1
	pcfg.NodeID = "a"
	p, err := New(pcfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pts := httptest.NewServer(p)
	defer pts.Close()

	rcfg := replConfig(b.TempDir(), clock)
	rcfg.WALSegmentBytes = 0
	rcfg.Sleep = nil
	rcfg.Role = repl.RoleReplica
	rcfg.PrimaryAddr = pts.URL
	rcfg.NodeID = "r1"
	r, err := New(rcfg)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close() // before pts.Close: the parked poll must be cancelled first

	// One kept-alive connection per writer: the default transport keeps two.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: writers}}
	defer client.CloseIdleConnections()
	post := func(path, body string) error {
		resp, err := client.Post(pts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("POST %s = %d", path, resp.StatusCode)
		}
		return nil
	}
	for w := 0; w < writers; w++ {
		if err := post("/v1/db", fmt.Sprintf(`{"id":%d}`, w+1)); err != nil {
			b.Fatal(err)
		}
	}

	before, fsyncsBefore := r.followerRef().Stats(), r.wal.Metrics().Fsyncs
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, verb := w, "logout"; i < b.N; i += writers {
				clock.Step()
				if err := post(fmt.Sprintf("/v1/db/%d/%s", w+1, verb), ""); err != nil {
					b.Error(err)
					return
				}
				if verb == "logout" {
					verb = "login"
				} else {
					verb = "logout"
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	after, fsyncs := r.followerRef().Stats(), r.wal.Metrics().Fsyncs-fsyncsBefore
	batches := float64(after.Batches - before.Batches)
	b.ReportMetric(float64(after.Batches+after.CaughtUpPolls-before.Batches-before.CaughtUpPolls)/float64(b.N), "polls/op")
	b.ReportMetric(float64(after.Records-before.Records)/batches, "records/batch")
	b.ReportMetric(float64(fsyncs)/batches, "fsyncs/batch")
}
