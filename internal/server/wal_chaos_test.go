package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prorp/internal/faults"
	"prorp/internal/wal"
)

// stepClock is a shared fake clock chaos workers advance atomically: every
// Step moves time forward one second, so the timestamps the server assigns
// to one database's events are strictly increasing (one worker owns one
// database and steps between its own requests).
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Step() {
	c.mu.Lock()
	c.t = c.t.Add(time.Second)
	c.mu.Unlock()
}

// ackedEvent is one mutation the server acknowledged with HTTP 200: the
// client holds the server-assigned event time from the response. After
// kill-replay, the tuple must exist in the rebuilt history.
type ackedEvent struct {
	unix  int64
	login bool
}

// TestChaosWALKillReplay is the end-to-end half of the kill-replay chaos
// gate (the journal-level half is wal.TestChaosWALTornTail): 50 seeded
// iterations of a full server — snapshot persistence plus event journal —
// killed mid-traffic while the disk misbehaves, crash debris damaged
// post-mortem, then rebooted. The invariant is the issue's acceptance bar:
// zero acknowledged-but-lost events. Every create acknowledged with 201
// resolves after reboot; every login/logout acknowledged with 200 is
// present in the rebuilt activity history at its server-assigned time.
//
// Workers stop driving their database at the first failed request: a
// failed append can still leave a durable journal record (fsync failed
// after the write landed), and replaying such a record legitimately
// absorbs a later event's history tuple — at-least-once replay changes
// unacknowledged state, never acknowledged state. Runs under -race in CI
// (make wal-chaos).
func TestChaosWALKillReplay(t *testing.T) {
	eachChaosSeed(t, chaosWALKillReplay)
}

func chaosWALKillReplay(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	inj := faults.NewInjector(seed)
	dir := t.TempDir()
	clock := &stepClock{t: t0}
	fsync := wal.FsyncAlways
	if rng.Intn(2) == 0 {
		fsync = wal.FsyncBatch // group commit still blocks acks on the fsync
	}
	cfg := Config{
		Options:          testOptions(),
		Shards:           4,
		SnapshotPath:     filepath.Join(dir, "fleet.snap"),
		SnapshotEvery:    time.Hour, // snapshots driven explicitly
		WALDir:           filepath.Join(dir, "wal"),
		WALFsync:         fsync,
		WALSegmentBytes:  4096, // tiny segments: rotations under fire
		WALBatchInterval: time.Millisecond,
		FS:               faults.NewFaultFS(faults.OS, inj, funcClock{now: clock.Now, sleep: noSleep}),
		Now:              clock.Now,
		Sleep:            noSleep,
		Backoff: faults.Backoff{Attempts: 3, Base: time.Millisecond,
			Max: 4 * time.Millisecond, Factor: 2, Rand: inj.Rand()},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}

	// Phase 1 — anchor population, disk healthy: one database per worker.
	const workers = 4
	for id := 1; id <= workers; id++ {
		clock.Step()
		code, out := call(t, srv, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}

	// Phase 2 — the disk goes bad, traffic keeps coming.
	inj.PartialWrites("fs.write", 0.2*rng.Float64())
	inj.FailProb("fs.write", 0.1*rng.Float64(), nil)
	inj.FailProb("fs.sync", 0.15*rng.Float64(), nil)
	inj.FailProb("fs.openfile", 0.1*rng.Float64(), nil)
	inj.FailProb("fs.createtemp", 0.3*rng.Float64(), nil)
	inj.FailProb("fs.rename", 0.3*rng.Float64(), nil)

	acked := make([][]ackedEvent, workers)
	ackedCreates := make([]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := w + 1
			// A chaos-phase create too: acknowledged means it must survive.
			clock.Step()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/db", strings.NewReader(fmt.Sprintf(`{"id":%d}`, 100+id)))
			srv.ServeHTTP(rec, req)
			ackedCreates[w] = rec.Code == http.StatusCreated

			// Alternating logout/login (a fresh database starts active);
			// stop at the first failure — see the test comment.
			login := false
			for i := 0; i < 40; i++ {
				clock.Step()
				verb := "logout"
				if login {
					verb = "login"
				}
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", fmt.Sprintf("/v1/db/%d/%s", id, verb), strings.NewReader(""))
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return
				}
				var out struct {
					At time.Time `json:"at"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Errorf("worker %d: bad %s reply %q: %v", w, verb, rec.Body.String(), err)
					return
				}
				acked[w] = append(acked[w], ackedEvent{unix: out.At.Unix(), login: login})
				login = !login
			}
		}(w)
	}

	// Mid-traffic: a couple of snapshot attempts (compaction racing the
	// journal; they may fail, that is the point), then the kill.
	for i := 0; i < 2; i++ {
		time.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		fire(srv, "POST", "/v1/ops/snapshot", "")
	}
	time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
	srv.Kill() // in-flight requests fail; workers observe and stop
	wg.Wait()

	// Post-mortem damage to the crash debris: bytes beyond the active
	// segment's durable prefix are fair game for a torn write.
	if path, durable := srv.wal.ActiveSegment(); path != "" {
		if data, err := os.ReadFile(path); err == nil && int64(len(data)) > durable {
			tail := data[durable:]
			switch rng.Intn(3) {
			case 0:
				os.WriteFile(path, data[:durable+int64(rng.Intn(len(tail)+1))], 0o644)
			case 1:
				tail[rng.Intn(len(tail))] ^= byte(1 << rng.Intn(8))
				os.WriteFile(path, data, 0o644)
			case 2:
				f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				f.Write(make([]byte, rng.Intn(64)))
				f.Close()
			}
		}
	}
	inj.HealAll()

	// Phase 3 — reboot and audit. Boot must succeed (torn tails truncate,
	// never refuse), and nothing acknowledged may be missing.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("boot after kill: %v", err)
	}
	defer srv2.Close()
	for id := 1; id <= workers; id++ {
		if _, err := srv2.Fleet().State(id); err != nil {
			t.Fatalf("anchor database %d lost: %v", id, err)
		}
	}
	lost := 0
	for w := 0; w < workers; w++ {
		id := w + 1
		if ackedCreates[w] {
			if _, err := srv2.Fleet().State(100 + id); err != nil {
				t.Errorf("acknowledged create of %d lost: %v", 100+id, err)
				lost++
			}
		}
		hist, err := srv2.Fleet().History(id)
		if err != nil {
			t.Fatalf("history of %d: %v", id, err)
		}
		tuples := make(map[int64]bool, len(hist))
		for _, e := range hist {
			tuples[e.Time.Unix()] = e.Login
		}
		for _, ev := range acked[w] {
			got, ok := tuples[ev.unix]
			if !ok || got != ev.login {
				t.Errorf("db %d: acknowledged event (unix %d, login=%v) missing from rebuilt history", id, ev.unix, ev.login)
				lost++
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d acknowledged events lost after kill-replay", lost)
	}

	// The rebuilt server serves.
	clock.Step()
	rec := httptest.NewRecorder()
	srv2.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/db/1/login", strings.NewReader("")))
	if rec.Code != http.StatusOK {
		t.Fatalf("rebooted server cannot serve: %d %s", rec.Code, rec.Body.String())
	}
}
