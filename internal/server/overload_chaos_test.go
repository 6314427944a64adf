package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"prorp/internal/admission"
	"prorp/internal/faults"
	"prorp/internal/wal"
)

// overloadDoer is the in-process inter-group transport with hangable
// hosts: a hung peer holds each request for holdFor of real time and then
// fails it — the "accepted the connection, then wedged" failure mode that
// burns a timeout per call until a circuit breaker learns better.
type overloadDoer struct {
	inner   faults.Doer
	holdFor time.Duration

	mu   sync.Mutex
	hung map[string]bool
}

func (d *overloadDoer) hang(host string) {
	d.mu.Lock()
	if d.hung == nil {
		d.hung = make(map[string]bool)
	}
	d.hung[host] = true
	d.mu.Unlock()
}

func (d *overloadDoer) healAll() {
	d.mu.Lock()
	d.hung = nil
	d.mu.Unlock()
}

func (d *overloadDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	hung := d.hung[req.URL.Host]
	d.mu.Unlock()
	if hung {
		time.Sleep(d.holdFor)
		return nil, fmt.Errorf("chaos: %s hung", req.URL.Host)
	}
	return d.inner.Do(req)
}

// overloadConfig builds one group's durable Config with the overload layer
// tuned for test time scales: a 5ms sojourn target, trip-after-3 breakers
// with a 50ms cooldown, and a 100ms scatter deadline.
func overloadConfig(t *testing.T, dir, g string, peers map[string]string, clock *stepClock, doer faults.Doer, inj *faults.Injector) Config {
	return Config{
		Options:              testOptions(),
		Shards:               4,
		SnapshotPath:         filepath.Join(dir, "fleet.snap"),
		SnapshotEvery:        time.Hour,
		WALDir:               filepath.Join(dir, "wal"),
		WALFsync:             wal.FsyncAlways,
		WALSegmentBytes:      2048,
		Group:                g,
		GroupPeers:           peers,
		ShardmapPath:         filepath.Join(dir, "shard.map"),
		RouterDoer:           doer,
		ScatterTimeout:       100 * time.Millisecond,
		AdmissionTargetDelay: 5 * time.Millisecond,
		AdmissionMaxInflight: 64,
		BreakerThreshold:     3,
		BreakerCooldown:      50 * time.Millisecond,
		Now:                  clock.Now,
		Sleep:                noSleep,
		Backoff: faults.Backoff{Attempts: 3, Base: time.Millisecond,
			Max: 2 * time.Millisecond, Factor: 2, Rand: inj.Rand()},
		Logf: t.Logf,
	}
}

// rawCall is call() without the JSON decode: the overload assertions need
// response headers (Retry-After), not just the body.
func rawCall(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// p99 returns the 99th-percentile of a latency sample.
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := len(samples) * 99 / 100
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// TestChaosOverload is the overload-robustness acceptance gate: 50 seeded
// iterations of a three-group control plane flooded with mixed-priority
// open-loop load while one or two peer groups hang (accept, wedge, fail)
// and the transport randomly partitions. Invariants, every iteration:
//
//   - Priority inversion never happens: login (decision-class) traffic is
//     never shed and its p99 stays bounded while the hung inter-group
//     paths drive background — and under enough pressure, write and read
//     — classes to shed with 429.
//   - Every shed/open/backlog rejection carries a Retry-After hint.
//   - Circuit breakers trip on the hung peers (bounding the per-request
//     cost at O(1) instead of a timeout each) and re-close on their own
//     once the fault clears — verified by a scatter that completes.
//   - Zero acked-write loss: every event acknowledged during the flood
//     survives a kill -9 and a reboot from WAL + snapshot.
//
// Runs under -race in CI (make overload-chaos). On failure, each group's
// on-disk debris is copied to $PRORP_CHAOS_DEBRIS/<test-name>.
func TestChaosOverload(t *testing.T) {
	eachChaosSeed(t, chaosOverload)
}

func chaosOverload(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	inj := faults.NewInjector(seed)
	clock := &stepClock{t: t0}
	net := &mapDoer{}
	flaky := faults.NewFaultDoer(net, inj, funcClock{now: time.Now, sleep: napSleep})
	doer := &overloadDoer{inner: flaky, holdFor: 25 * time.Millisecond}

	dirs := map[string]string{"g1": t.TempDir(), "g2": t.TempDir(), "g3": t.TempDir()}
	saveDebris(t, dirs)
	peersOf := map[string]map[string]string{
		"g1": {"g2": "http://g2", "g3": "http://g3"},
		"g2": {"g1": "http://g1", "g3": "http://g3"},
		"g3": {"g1": "http://g1", "g2": "http://g2"},
	}
	boot := func(g string) *Server {
		srv, err := New(overloadConfig(t, dirs[g], g, peersOf[g], clock, doer, inj))
		if err != nil {
			t.Fatalf("boot %s: %v", g, err)
		}
		t.Cleanup(func() { srv.Close() })
		net.bind(g, srv)
		return srv
	}
	g1 := boot("g1")
	boot("g2")
	boot("g3")

	// Population: two g1-owned databases, one per acked-writer goroutine,
	// so each database's event times are strictly increasing under its
	// owner's clock steps.
	m := g1.router.mapP.Load()
	ids := idsOwnedBy(t, m, "g1", 2, 1)
	for _, id := range ids {
		clock.Step()
		code, out := call(t, g1, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}

	// Fault window: hang one or both peer groups and partition a slice of
	// the remaining transport. g1 — where all client traffic lands — stays
	// up; its inter-group paths are what degrade.
	hungHosts := []string{"g2", "g3"}[:1+rng.Intn(2)]
	for _, h := range hungHosts {
		doer.hang(h)
	}
	inj.FailProb("http.request", 0.2*rng.Float64(), fmt.Errorf("chaos: partitioned"))

	// Deterministic shed probe before the open-loop flood: park one
	// background request on the hung path, wait until the admission
	// controller sees its sojourn past the target, then submit another —
	// which must shed with 429 + Retry-After while decision traffic
	// (asserted below) keeps flowing.
	probeDone := make(chan struct{})
	go func() {
		rawCall(g1, "POST", "/v1/shard/reconcile", "")
		close(probeDone)
	}()
	waitUntil(t, "a background request to age past the shed target", func() bool {
		p := g1.admission.Pressure()
		return p.Inflight > 0 && p.OldestSojourn > g1.admission.TargetDelay()
	})
	rec := rawCall(g1, "POST", "/v1/shard/reconcile", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("background submit behind an aged request = %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed 429 carries no Retry-After")
	}
	<-probeDone

	// Open-loop flood: background reconciles (fanning into the hung
	// peers), reads, and two acked writers alternating login/logout, for a
	// fixed wall window. Nobody slows down on rejection — that is the
	// admission controller's job.
	var (
		stop       = make(chan struct{})
		wg         sync.WaitGroup
		mu         sync.Mutex
		acked      []ackedWrite
		loginLat   []time.Duration
		violations []string
	)
	checkRetryAfter := func(rec *httptest.ResponseRecorder, what string) {
		if rec.Code != http.StatusTooManyRequests && rec.Code != http.StatusServiceUnavailable {
			return
		}
		if rec.Header().Get("Retry-After") == "" {
			mu.Lock()
			violations = append(violations, fmt.Sprintf("%s: %d without Retry-After (%s)",
				what, rec.Code, rec.Body.String()))
			mu.Unlock()
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				checkRetryAfter(rawCall(g1, "POST", "/v1/shard/reconcile", ""), "background reconcile")
			}
		}()
	}
	for i := 0; i < 2; i++ {
		id := ids[i%len(ids)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				checkRetryAfter(rawCall(g1, "GET", fmt.Sprintf("/v1/db/%d", id), ""), "read")
				time.Sleep(time.Millisecond)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		id := ids[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A new database is born active (creation records the start of
			// an activity period), so the alternation begins with logout.
			nextLogin := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				verb := "logout"
				if nextLogin {
					verb = "login"
				}
				clock.Step()
				start := time.Now()
				rec := rawCall(g1, "POST", fmt.Sprintf("/v1/db/%d/%s", id, verb), "")
				lat := time.Since(start)
				if nextLogin {
					// Decision class: a login must never be shed, whatever
					// the background queues look like.
					if rec.Code != http.StatusOK {
						mu.Lock()
						violations = append(violations, fmt.Sprintf(
							"login on db %d = %d (%s)", id, rec.Code, rec.Body.String()))
						mu.Unlock()
						return
					}
					mu.Lock()
					loginLat = append(loginLat, lat)
					mu.Unlock()
				}
				checkRetryAfter(rec, verb)
				if rec.Code == http.StatusOK {
					var out struct {
						At string `json:"at"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						t.Errorf("bad %s body %q: %v", verb, rec.Body.String(), err)
						return
					}
					at, err := time.Parse(time.RFC3339, out.At)
					if err != nil {
						t.Errorf("bad event time %q: %v", out.At, err)
						return
					}
					mu.Lock()
					acked = append(acked, ackedWrite{id: id, unix: at.Unix(), login: nextLogin})
					mu.Unlock()
					nextLogin = !nextLogin
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Backstop: keep hammering the hung path until the breakers have both
	// tripped and refused something — the flood almost always got there,
	// but the race detector can starve it on a loaded machine.
	waitUntil(t, "breakers to trip and reject on the hung peers", func() bool {
		rawCall(g1, "POST", "/v1/shard/reconcile", "")
		st := g1.router.breakers.Stats()
		return st.Trips > 0 && st.Rejections > 0
	})

	if len(violations) > 0 {
		t.Fatalf("overload contract violations (%d):\n%s", len(violations), strings.Join(violations, "\n"))
	}
	if got := g1.admission.Stats(admission.Decision).Shed; got != 0 {
		t.Fatalf("decision class shed %d requests; logins must never shed", got)
	}
	if got := g1.admission.Stats(admission.Background).Shed; got == 0 {
		t.Fatalf("background class shed nothing under a hung-peer flood")
	}
	if got, bound := p99(loginLat), 2*time.Second; got > bound {
		t.Fatalf("login p99 = %v under overload, want < %v (n=%d)", got, bound, len(loginLat))
	}

	// Recovery: clear every fault and drive light traffic; the breakers
	// must probe their way closed with no operator involved, after which a
	// fleet-wide scatter completes against all three groups.
	doer.healAll()
	inj.HealAll()
	waitUntil(t, "breakers to re-close after the fault cleared", func() bool {
		rawCall(g1, "POST", "/v1/shard/reconcile", "")
		for _, state := range g1.router.breakers.States() {
			if state != "closed" {
				return false
			}
		}
		return true
	})
	if st := g1.router.breakers.Stats(); st.Recoveries == 0 {
		t.Fatalf("breakers closed without a recorded recovery: %+v", st)
	}
	code, out := call(t, g1, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)

	// Zero acked-write loss: kill g1 mid-flight (no final snapshot) and
	// reboot it from its journal; every acknowledged event must be there.
	g1.Kill()
	net.bind("g1", nil)
	g1b := boot("g1")
	assertAcked(t, g1b, acked)
}
