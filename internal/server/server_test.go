package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prorp"
)

var t0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

// fakeClock is an injectable clock the test moves forward explicitly; the
// background tickers (real time) stay inert during the test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

func testOptions() prorp.Options {
	opts := prorp.DefaultOptions()
	opts.LogicalPause = time.Hour
	// Keep the real-time proactive-resume ticker out of the test's way; the
	// test drives control-plane beats through POST /v1/ops/resume.
	opts.ResumeOpPeriod = time.Hour
	return opts
}

// call sends one request through the handler and decodes the JSON reply.
func call(t *testing.T, s *Server, method, path, body string) (int, map[string]any) {
	t.Helper()
	var r *strings.Reader
	if body == "" {
		r = strings.NewReader("")
	} else {
		r = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	out := make(map[string]any)
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
	}
	return rec.Code, out
}

func wantStatus(t *testing.T, got int, want int, out map[string]any) {
	t.Helper()
	if got != want {
		t.Fatalf("status = %d, want %d (%v)", got, want, out)
	}
}

// TestServerLifecycleAndRestart walks the full serving story: create,
// pattern-driven physical pause, proactive prewarm, warm login, snapshot,
// graceful shutdown, and a second server restoring the fleet from the final
// snapshot — the kill-and-restart contract.
func TestServerLifecycleAndRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "fleet.snap")
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srv, err := New(Config{
		Options:      testOptions(),
		Shards:       4,
		SnapshotPath: snap,
		Now:          clock.Now,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	if out["state"] != "resumed" {
		t.Fatalf("create reply = %v", out)
	}

	// Three days of 09:00–17:00 activity: the third idle has enough matching
	// days (3/28 >= 0.1) to predict tomorrow's login and physically pause.
	// Until then each logical pause runs out at 18:00 — the wake is delivered
	// on the server's clock, ahead of the next request — so the mornings are
	// cold.
	day := 24 * time.Hour
	for d := 0; d < 3; d++ {
		if d > 0 {
			clock.Set(t0.Add(time.Duration(d)*day + 9*time.Hour))
			code, out = call(t, srv, "POST", "/v1/db/1/login", "")
			wantStatus(t, code, http.StatusOK, out)
			if out["event"] != "resume-cold" {
				t.Fatalf("day %d login = %v", d, out)
			}
		}
		clock.Set(t0.Add(time.Duration(d)*day + 17*time.Hour))
		code, out = call(t, srv, "POST", "/v1/db/1/logout", "")
		wantStatus(t, code, http.StatusOK, out)
		want := "logical-pause"
		if d == 2 {
			want = "physical-pause"
		}
		if out["event"] != want {
			t.Fatalf("day %d logout = %v, want event %s", d, out, want)
		}
	}

	code, out = call(t, srv, "GET", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["state"] != "physically-paused" || out["resources_available"] != false {
		t.Fatalf("GET db 1 = %v", out)
	}
	if out["prediction"] == nil {
		t.Fatalf("paused database has no prediction: %v", out)
	}
	code, out = call(t, srv, "GET", "/v1/db/1?windows=1", "")
	wantStatus(t, code, http.StatusOK, out)
	if wins, _ := out["windows"].([]any); len(wins) == 0 {
		t.Fatalf("windows scan empty: %v", out)
	}

	// A second database with no pattern yet.
	clock.Set(t0.Add(3*day + 8*time.Hour))
	code, out = call(t, srv, "POST", "/v1/db", `{"id":2}`)
	wantStatus(t, code, http.StatusCreated, out)

	// Minutes ahead of the predicted login, one control-plane beat prewarms
	// database 1.
	clock.Set(t0.Add(3*day + 9*time.Hour - 4*time.Minute))
	code, out = call(t, srv, "POST", "/v1/ops/resume", "")
	wantStatus(t, code, http.StatusOK, out)
	if pws, _ := out["prewarmed"].([]any); len(pws) != 1 || pws[0] != float64(1) {
		t.Fatalf("ops/resume = %v", out)
	}
	code, out = call(t, srv, "GET", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["resources_available"] != true {
		t.Fatalf("prewarmed db 1 = %v", out)
	}

	// The predicted login lands warm.
	clock.Set(t0.Add(3*day + 9*time.Hour))
	code, out = call(t, srv, "POST", "/v1/db/1/login", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["event"] != "resume-warm" || out["from_prewarm"] != true {
		t.Fatalf("prewarmed login = %v", out)
	}

	code, out = call(t, srv, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["databases"] != float64(2) || out["cold_resumes"] != float64(2) || out["warm_resumes"] != float64(1) ||
		out["prewarms"] != float64(1) || out["prewarms_used"] != float64(1) {
		t.Fatalf("kpi = %v", out)
	}
	code, out = call(t, srv, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["status"] != "ok" || out["databases"] != float64(2) {
		t.Fatalf("healthz = %v", out)
	}

	code, out = call(t, srv, "POST", "/v1/ops/snapshot", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["bytes"] == float64(0) {
		t.Fatalf("ops/snapshot = %v", out)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	}

	// Database 2 idles before any pattern exists: logical pause with a
	// pending wake — it rides into the snapshot as the restart's timer.
	clock.Set(t0.Add(3*day + 16*time.Hour + 30*time.Minute))
	code, out = call(t, srv, "POST", "/v1/db/2/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["event"] != "logical-pause" || out["wake_at"] == nil {
		t.Fatalf("db 2 logout = %v", out)
	}

	// End the day and shut down: Close drains the fleet and writes the
	// final snapshot.
	clock.Set(t0.Add(3*day + 17*time.Hour))
	code, out = call(t, srv, "POST", "/v1/db/1/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["event"] != "physical-pause" {
		t.Fatalf("final logout = %v", out)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// ----- restart ----------------------------------------------------------

	clock.Set(t0.Add(3*day + 18*time.Hour))
	srv2, err := New(Config{
		Options:      testOptions(),
		Shards:       4,
		SnapshotPath: snap,
		Now:          clock.Now,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	code, out = call(t, srv2, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["databases"] != float64(2) {
		t.Fatalf("restored healthz = %v", out)
	}
	code, out = call(t, srv2, "GET", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["state"] != "physically-paused" {
		t.Fatalf("restored db 1 = %v", out)
	}

	// Database 2's restored wake (17:30 on day 3) is already overdue: it is
	// delivered ahead of the first request that could see it, and without a
	// prediction the wake physically pauses the database.
	code, out = call(t, srv2, "GET", "/v1/db/2", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["state"] != "physically-paused" {
		t.Fatalf("restored db 2 did not wake: %v", out)
	}

	// The restored fleet is live: next morning's beat prewarms database 1
	// again (database 2 paused without a prediction stays down).
	clock.Set(t0.Add(4*day + 9*time.Hour - 4*time.Minute))
	code, out = call(t, srv2, "POST", "/v1/ops/resume", "")
	wantStatus(t, code, http.StatusOK, out)
	if pws, _ := out["prewarmed"].([]any); len(pws) != 1 || pws[0] != float64(1) {
		t.Fatalf("ops/resume after restart = %v", out)
	}
}

// TestHealthzPausedMatchesKPIReactive: /healthz "paused", /v1/kpi
// "physically_paused" and the prorp_fleet_physically_paused gauge count the
// same databases in reactive mode too, where no pause enters the Algorithm 5
// index.
func TestHealthzPausedMatchesKPIReactive(t *testing.T) {
	opts := testOptions()
	opts.Mode = prorp.Reactive
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srv, err := New(Config{Options: opts, Shards: 4, Now: clock.Now, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	for id := 1; id <= 4; id++ {
		code, out := call(t, srv, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}
	clock.Set(t0.Add(10 * time.Hour))
	for id := 1; id <= 3; id++ {
		code, out := call(t, srv, "POST", fmt.Sprintf("/v1/db/%d/logout", id), "")
		wantStatus(t, code, http.StatusOK, out)
	}
	// The logical pauses run out; the next request delivers their wakes.
	clock.Set(t0.Add(12 * time.Hour))
	code, kpi := call(t, srv, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, kpi)
	code, health := call(t, srv, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, health)
	gauge := sampleValue(t, scrape(t, srv), "prorp_fleet_physically_paused", nil)
	if kpi["physically_paused"] != float64(3) || health["paused"] != float64(3) || gauge != 3 {
		t.Fatalf("physically paused: kpi %v, healthz %v, gauge %v; want 3 each",
			kpi["physically_paused"], health["paused"], gauge)
	}
}

func TestServerErrorPaths(t *testing.T) {
	clock := &fakeClock{t: t0}
	srv, err := New(Config{Options: testOptions(), Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)

	code, out = call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusConflict, out)

	code, out = call(t, srv, "POST", "/v1/db", `{`)
	wantStatus(t, code, http.StatusBadRequest, out)

	code, out = call(t, srv, "POST", "/v1/db/7/login", "")
	wantStatus(t, code, http.StatusNotFound, out)

	code, out = call(t, srv, "GET", "/v1/db/abc", "")
	wantStatus(t, code, http.StatusBadRequest, out)

	code, out = call(t, srv, "DELETE", "/v1/db/7", "")
	wantStatus(t, code, http.StatusNotFound, out)

	// Snapshots are disabled without a path.
	code, out = call(t, srv, "POST", "/v1/ops/snapshot", "")
	wantStatus(t, code, http.StatusInternalServerError, out)

	// Delete cancels the database and its pending wake.
	clock.Set(t0.Add(time.Hour))
	code, out = call(t, srv, "POST", "/v1/db/1/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["wake_at"] == nil {
		t.Fatalf("logout = %v", out)
	}
	code, out = call(t, srv, "DELETE", "/v1/db/1", "")
	wantStatus(t, code, http.StatusOK, out)
	code, out = call(t, srv, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["databases"] != float64(0) || out["pending_wakes"] != float64(0) {
		t.Fatalf("kpi after delete = %v", out)
	}
}

// TestGetDBGolden pins the bytes of GET /v1/db/{id}, with and without
// ?windows=, over a fixed history (three 09:00–17:00 days, asked at 08:00 on
// the fourth) to what the handler sent at 065ed2d, when it ran the full
// per-window scan for either form and read the state under a lock of its own.
func TestGetDBGolden(t *testing.T) {
	const (
		goldenPlain = `{"id":1,"state":"physically-paused","resources_available":false,` +
			`"prediction":{"start":"2023-09-04T09:00:00Z","end":"2023-09-04T09:00:00Z"}}` + "\n"
		goldenWindowsLen = 17592
		goldenWindows    = "bfd94955d77c71116324cd182cda29299b2de1a8a1af288606c8e3d1717f9d20"
	)
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srv, err := New(Config{Options: testOptions(), Shards: 4, Now: clock.Now, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	const day = 24 * time.Hour
	for d := 0; d < 3; d++ {
		if d > 0 {
			clock.Set(t0.Add(time.Duration(d)*day + 9*time.Hour))
			call(t, srv, "POST", "/v1/db/1/login", "")
		}
		clock.Set(t0.Add(time.Duration(d)*day + 17*time.Hour))
		call(t, srv, "POST", "/v1/db/1/logout", "")
	}
	clock.Set(t0.Add(3*day + 8*time.Hour))

	if got := get("/v1/db/1"); got != goldenPlain {
		t.Errorf("GET /v1/db/1 =\n%q, want\n%q", got, goldenPlain)
	}
	got := get("/v1/db/1?windows=1")
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); len(got) != goldenWindowsLen || sum != goldenWindows {
		t.Errorf("GET /v1/db/1?windows=1: %d bytes hashing to %s, want %d bytes, %s", len(got), sum, goldenWindowsLen, goldenWindows)
	}
}

// TestDuplicateLogoutKeepsTheWake: a logout retried after its first copy
// was applied (a quorum timeout, say) is a no-op that keeps the pending
// wake — so past its WakeAt the database physically pauses instead of
// staying allocated, unbilled, until its next login. The no-op is
// journaled like any event, replays as the same no-op, and /v1/kpi counts
// it as a logout but not as a transition.
func TestDuplicateLogoutKeepsTheWake(t *testing.T) {
	clock := &fakeClock{t: t0}
	cfg := Config{Options: testOptions(), Shards: 4, WALDir: filepath.Join(t.TempDir(), "wal"), Now: clock.Now, Logf: t.Logf}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	clock.Set(t0.Add(time.Minute))
	code, out = call(t, srv, "POST", "/v1/db/1/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	wake, _ := out["wake_at"].(string)
	if out["event"] != "logical-pause" || wake == "" {
		t.Fatalf("logout = %v", out)
	}
	clock.Set(t0.Add(2 * time.Minute))
	code, out = call(t, srv, "POST", "/v1/db/1/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["event"] != "none" || out["wake_at"] != wake {
		t.Fatalf("duplicate logout = %v, want a no-op keeping wake_at %s", out, wake)
	}
	code, out = call(t, srv, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["logouts"] != float64(2) || out["logical_pauses"] != float64(1) {
		t.Fatalf("kpi after a duplicate logout = %v", out)
	}
	at, err := time.Parse(time.RFC3339, wake)
	if err != nil {
		t.Fatal(err)
	}
	pausedAtWake := func(srv *Server) {
		t.Helper()
		clock.Set(at.Add(time.Second))
		code, out := call(t, srv, "GET", "/v1/db/1", "")
		wantStatus(t, code, http.StatusOK, out)
		if out["state"] != "physically-paused" {
			t.Fatalf("past its wake at %s the database is %v", wake, out["state"])
		}
	}
	pausedAtWake(srv)
	srv.Kill()

	// Replay: create and both logouts are journaled and applied again (the
	// wake's physical pause is not a record), and the replayed no-op keeps
	// the wake too.
	clock.Set(t0.Add(2 * time.Minute))
	srv, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := srv.ops.walReplayed.Load(); n != 3 {
		t.Fatalf("replayed %d records, want create and both logouts", n)
	}
	pausedAtWake(srv)
}

// TestEventsInOneSecondGetDistinctSeconds: the history table is unique on
// whole seconds, so a create, logins and logouts landing in one second must
// not collapse into one tuple. Each is stamped one second after the last —
// in the response, the journal and the history.
func TestEventsInOneSecondGetDistinctSeconds(t *testing.T) {
	clock := &fakeClock{t: t0}
	cfg := Config{Options: testOptions(), Shards: 4, WALDir: filepath.Join(t.TempDir(), "wal"), Now: clock.Now, Logf: t.Logf}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	var stamps []string
	for _, ev := range []string{"logout", "login", "logout"} {
		code, out = call(t, srv, "POST", "/v1/db/1/"+ev, "")
		wantStatus(t, code, http.StatusOK, out)
		stamps = append(stamps, out["at"].(string))
	}
	for i, want := range []time.Time{t0.Add(time.Second), t0.Add(2 * time.Second), t0.Add(3 * time.Second)} {
		if got, err := time.Parse(time.RFC3339Nano, stamps[i]); err != nil || !got.Equal(want) {
			t.Fatalf("event %d stamped %s, want %s", i, stamps[i], want.UTC().Format(time.RFC3339))
		}
	}
	history := func(s *Server) int {
		t.Helper()
		h, err := s.Fleet().History(1)
		if err != nil {
			t.Fatal(err)
		}
		return len(h)
	}
	if n := history(srv); n != 4 {
		t.Fatalf("history holds %d tuples, want 4", n)
	}
	srv.Kill()
	reboot, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reboot.Close()
	if n := history(reboot); n != 4 {
		t.Fatalf("after replay the history holds %d tuples, want 4", n)
	}
}

// TestEventStampsConcurrent: handlers stamp from many goroutines at once;
// every stamp one database gets in one second is still a second of its own.
func TestEventStampsConcurrent(t *testing.T) {
	e := eventStamps{last: map[int]int64{}}
	const workers, each = 8, 50
	var (
		mu   sync.Mutex
		seen = map[int64]bool{}
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sec := e.stamp(1, t0).Unix()
				e.stamp(2, t0) // another database shares the map
				mu.Lock()
				if seen[sec] {
					t.Errorf("second %d stamped twice", sec)
				}
				seen[sec] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*each {
		t.Fatalf("%d distinct seconds for %d stamps", len(seen), workers*each)
	}
}
