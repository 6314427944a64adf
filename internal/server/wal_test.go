package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prorp"
	"prorp/internal/admission"
	"prorp/internal/breaker"
	"prorp/internal/faults"
)

// walSegments lists the journal's segment files, oldest first.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestServerWALReplayOnBoot is the tentpole's happy path: events that
// landed after the last snapshot survive a crash because they were
// journaled before they were acknowledged.
func TestServerWALReplayOnBoot(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{t: t0}
	cfg := Config{
		Options:      testOptions(),
		Shards:       4,
		SnapshotPath: filepath.Join(dir, "fleet.snap"),
		WALDir:       filepath.Join(dir, "wal"),
		Now:          clock.Now,
		Logf:         t.Logf,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Database 1 makes it into a snapshot; database 2 and the login exist
	// only in the journal when the crash lands.
	code, out := call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	code, out = call(t, srv, "POST", "/v1/ops/snapshot", "")
	wantStatus(t, code, http.StatusOK, out)

	clock.Set(t0.Add(time.Minute))
	code, out = call(t, srv, "POST", "/v1/db", `{"id":2}`)
	wantStatus(t, code, http.StatusCreated, out)
	clock.Set(t0.Add(2 * time.Minute))
	code, out = call(t, srv, "POST", "/v1/db/2/login", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["at"] == nil {
		t.Fatalf("login reply has no server-assigned event time: %v", out)
	}
	srv.Kill() // no final snapshot, no journal seal

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("boot after kill: %v", err)
	}
	defer srv2.Close()
	for id := 1; id <= 2; id++ {
		if _, err := srv2.Fleet().State(id); err != nil {
			t.Fatalf("database %d lost: %v", id, err)
		}
	}
	hist, err := srv2.Fleet().History(2)
	if err != nil || len(hist) == 0 || !hist[0].Login {
		t.Fatalf("database 2 history after replay = %v, %v", hist, err)
	}
	code, out = call(t, srv2, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)
	// Replay applied the post-snapshot events: create(2) and login(2).
	if out["wal_replayed_records"].(float64) < 2 {
		t.Fatalf("kpi wal_replayed_records = %v, want >= 2 (%v)", out["wal_replayed_records"], out)
	}
}

// TestServerWALBootWithoutSnapshot covers the snapshot-missing corner: a
// journal with history but no snapshot at all must rebuild the fleet from
// the journal alone — including rescheduling the wake timers the replayed
// decisions ask for.
func TestServerWALBootWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{t: t0}
	cfg := Config{
		Options:      testOptions(),
		SnapshotPath: filepath.Join(dir, "fleet.snap"), // never written
		WALDir:       filepath.Join(dir, "wal"),
		Now:          clock.Now,
		Logf:         t.Logf,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, out := call(t, srv, "POST", "/v1/db", `{"id":7}`)
	wantStatus(t, code, http.StatusCreated, out)
	clock.Set(t0.Add(30 * time.Minute))
	code, out = call(t, srv, "POST", "/v1/db/7/logout", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["event"] != "logical-pause" || out["wake_at"] == nil {
		t.Fatalf("logout = %v", out)
	}
	srv.Kill() // the snapshot file was never created

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("boot from journal alone: %v", err)
	}
	defer srv2.Close()
	code, out = call(t, srv2, "GET", "/v1/db/7", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["state"] != "logically-paused" {
		t.Fatalf("rebuilt db 7 = %v", out)
	}
	code, out = call(t, srv2, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["pending_wakes"] != float64(1) {
		t.Fatalf("replay did not reschedule the wake: %v", out)
	}
	if out["databases"] != float64(1) || out["wal_replayed_records"] != float64(2) {
		t.Fatalf("kpi after journal-only rebuild = %v", out)
	}
}

// TestServerWALSnapshotRacedCompaction pins the interrupted-compaction
// contract: when segment removal fails after a snapshot, the leftover
// segments below the boundary must be skipped by the next boot's replay
// (their events are already in the snapshot) and swept by the next
// successful compaction.
func TestServerWALSnapshotRacedCompaction(t *testing.T) {
	inj := faults.NewInjector(11)
	dir := t.TempDir()
	clock := &fakeClock{t: t0}
	cfg := Config{
		Options:      testOptions(),
		SnapshotPath: filepath.Join(dir, "fleet.snap"),
		WALDir:       filepath.Join(dir, "wal"),
		FS:           faults.NewFaultFS(faults.OS, inj, funcClock{now: clock.Now, sleep: noSleep}),
		Now:          clock.Now,
		Sleep:        noSleep,
		Backoff: faults.Backoff{Attempts: 2, Base: time.Millisecond,
			Max: 2 * time.Millisecond, Factor: 2, Rand: inj.Rand()},
		Logf: t.Logf,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []int{1, 2, 3} {
		clock.Set(t0.Add(time.Duration(i) * time.Minute))
		code, out := call(t, srv, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}
	before := len(walSegments(t, cfg.WALDir))

	// The snapshot lands but every segment removal fails: compaction is
	// interrupted, leftovers below the boundary stay on disk.
	inj.FailProb("fs.remove", 1, nil)
	code, out := call(t, srv, "POST", "/v1/ops/snapshot", "")
	wantStatus(t, code, http.StatusOK, out)
	if got := len(walSegments(t, cfg.WALDir)); got <= before {
		t.Fatalf("expected leftover segments after failed compaction: %d before, %d after", before, got)
	}

	// One more event after the boundary, then crash.
	clock.Set(t0.Add(10 * time.Minute))
	code, out = call(t, srv, "POST", "/v1/db/1/login", "")
	wantStatus(t, code, http.StatusOK, out)
	srv.Kill()
	inj.HealAll()

	// Boot: the leftovers hold create(1..3), all already in the snapshot.
	// Replay must start at the boundary — exactly one record (the login)
	// applied, nothing skipped, no double-count from the leftovers.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("boot over leftover segments: %v", err)
	}
	defer srv2.Close()
	code, out = call(t, srv2, "GET", "/v1/kpi", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["databases"] != float64(3) || out["wal_replayed_records"] != float64(1) ||
		out["wal_replay_skipped"] != float64(0) {
		t.Fatalf("kpi after boot over leftovers = %v", out)
	}

	// A healthy snapshot now sweeps the leftovers: only the fresh active
	// segment survives.
	code, out = call(t, srv2, "POST", "/v1/ops/snapshot", "")
	wantStatus(t, code, http.StatusOK, out)
	if segs := walSegments(t, cfg.WALDir); len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1: %v", len(segs), segs)
	}
}

// TestServerCreateBodyCap verifies the request-size guard on the one
// endpoint that reads a body.
func TestServerCreateBodyCap(t *testing.T) {
	srv, err := New(Config{Options: testOptions(), Now: (&fakeClock{t: t0}).Now})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	huge := `{"id":1,"pad":"` + strings.Repeat("x", maxCreateBody) + `"}`
	code, out := call(t, srv, "POST", "/v1/db", huge)
	wantStatus(t, code, http.StatusRequestEntityTooLarge, out)
	// The fleet must be untouched and the endpoint still usable.
	code, out = call(t, srv, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
}

// TestWriteErrStatusMapping pins the error-to-status table, including the
// journal-unavailable case that only fires under faults.
func TestWriteErrStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{prorp.ErrUnknownDatabase, http.StatusNotFound},
		{prorp.ErrDuplicateDatabase, http.StatusConflict},
		{fmt.Errorf("%w: disk on fire", errJournalUnavailable), http.StatusServiceUnavailable},
		{&routeError{status: http.StatusTemporaryRedirect, owner: "g2",
			location: "http://g2/v1/db/7", reason: "owned elsewhere"}, http.StatusTemporaryRedirect},
		{&routeError{status: http.StatusMisdirectedRequest, owner: "g2",
			reason: "stale shard map"}, http.StatusMisdirectedRequest},
		{errSlotFenced, http.StatusServiceUnavailable},
		{fmt.Errorf("migrate: %w", errSlotFenced), http.StatusServiceUnavailable},
		{admission.ErrShedLoad, http.StatusTooManyRequests},
		{fmt.Errorf("%w: class=background", admission.ErrShedLoad), http.StatusTooManyRequests},
		{breaker.ErrOpen, http.StatusServiceUnavailable},
		{fmt.Errorf("proxy to group %q: %w", "g2", breaker.ErrOpen), http.StatusServiceUnavailable},
		{errNotPrimary, http.StatusServiceUnavailable},
		{errQuorumUnreached, http.StatusServiceUnavailable},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeErr(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("writeErr(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
	// Routing verdicts are more than a status: a redirect names the owner's
	// address, a fence rejection names the retry window.
	rec := httptest.NewRecorder()
	writeErr(rec, &routeError{status: http.StatusTemporaryRedirect, owner: "g2",
		location: "http://g2/v1/db/7", reason: "owned elsewhere"})
	if loc := rec.Header().Get("Location"); loc != "http://g2/v1/db/7" {
		t.Errorf("redirect Location = %q", loc)
	}
	if g := rec.Header().Get(HeaderShardGroup); g != "g2" {
		t.Errorf("redirect %s = %q, want g2", HeaderShardGroup, g)
	}
	rec = httptest.NewRecorder()
	writeErr(rec, errSlotFenced)
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("fence Retry-After = %q, want 1", ra)
	}
	// Every transient rejection carries a Retry-After; permanent verdicts
	// must not (a 404 told to retry in a second would be a lie).
	retryable := []error{admission.ErrShedLoad, breaker.ErrOpen, errSlotFenced,
		errQuorumUnreached, errNotPrimary}
	for _, err := range retryable {
		rec := httptest.NewRecorder()
		writeErr(rec, err)
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("writeErr(%v): no Retry-After on a transient rejection", err)
		}
	}
	for _, err := range []error{prorp.ErrUnknownDatabase, prorp.ErrDuplicateDatabase, errors.New("boom")} {
		rec := httptest.NewRecorder()
		writeErr(rec, err)
		if ra := rec.Header().Get("Retry-After"); ra != "" {
			t.Errorf("writeErr(%v): unexpected Retry-After %q", err, ra)
		}
	}
	// writeErrAfter rounds the computed hint up to whole seconds, floor 1:
	// a 2.5s breaker cooldown reads as 3, a 10ms sojourn as 1.
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{{10 * time.Millisecond, "1"}, {time.Second, "1"}, {2500 * time.Millisecond, "3"}, {10 * time.Second, "10"}} {
		rec := httptest.NewRecorder()
		writeErrAfter(rec, breaker.ErrOpen, tc.d)
		if ra := rec.Header().Get("Retry-After"); ra != tc.want {
			t.Errorf("writeErrAfter(%v): Retry-After = %q, want %q", tc.d, ra, tc.want)
		}
	}
}
