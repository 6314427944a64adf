package server

import (
	"flag"
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
)

// chaosSeeds is how many seeds (0..n-1) every chaos suite in this package
// runs: `go test -chaos.seeds=3` for a quick look, the full sweep by default
// and from `make chaos` / CI.
var chaosSeeds = flag.Int("chaos.seeds", 50, "seeds each chaos suite runs (0..n-1)")

// eachChaosSeed runs iteration once per seed, as parallel subtests seedNN.
func eachChaosSeed(t *testing.T, iteration func(t *testing.T, seed int64)) {
	for seed := int64(0); seed < int64(*chaosSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			iteration(t, seed)
		})
	}
}

// TestChaosKillAndRestore is the chaos gate of the serving stack: 50
// seeded iterations, each driving a persistent server through concurrent
// traffic while the disk misbehaves (transient errors, partial writes,
// failed renames and fsyncs), then killing it, damaging the primary
// snapshot post-mortem (bit flips, deletion, truncation), and restarting.
// The invariant: zero lost databases — every database created before the
// first good snapshot is present and serviceable after kill-and-restore,
// no matter which faults fired. Runs under -race in CI.
func TestChaosKillAndRestore(t *testing.T) {
	eachChaosSeed(t, chaosIteration)
}

// fire sends one request and ignores the outcome: chaos traffic does not
// assert per-call (faults make individual failures legitimate), only the
// end-state invariant matters.
func fire(s *Server, method, path, body string) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	s.ServeHTTP(httptest.NewRecorder(), req)
}

func chaosIteration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	inj := faults.NewInjector(seed)
	dir := t.TempDir()
	snap := filepath.Join(dir, "fleet.snap")
	clock := &fakeClock{t: t0}
	cfg := Config{
		Options:       testOptions(),
		Shards:        4,
		SnapshotPath:  snap,
		SnapshotEvery: time.Hour, // beats are driven explicitly
		FS:            faults.NewFaultFS(faults.OS, inj, funcClock{now: clock.Now, sleep: noSleep}),
		Now:           clock.Now,
		Sleep:         noSleep,
		Backoff: faults.Backoff{Attempts: 3, Base: time.Millisecond,
			Max: 4 * time.Millisecond, Factor: 2, Rand: inj.Rand()},
		DegradedAfter: 2,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}

	// Phase 1 — population and pattern building, disk healthy. Every
	// database exists before the first snapshot, so every snapshot in the
	// chain contains all of them: that is the invariant's anchor.
	k := 5 + rng.Intn(12)
	for id := 1; id <= k; id++ {
		fire(srv, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
	}
	day := 24 * time.Hour
	for d := 0; d < 3; d++ {
		clock.Set(t0.Add(time.Duration(d)*day + 9*time.Hour))
		for id := 1; id <= k; id++ {
			if d > 0 {
				fire(srv, "POST", fmt.Sprintf("/v1/db/%d/login", id), "")
			}
		}
		clock.Set(t0.Add(time.Duration(d)*day + 17*time.Hour))
		for id := 1; id <= k; id++ {
			fire(srv, "POST", fmt.Sprintf("/v1/db/%d/logout", id), "")
		}
	}
	// Two clean snapshots: primary and .bak both good, both hold all k.
	for i := 0; i < 2; i++ {
		if _, err := srv.writeSnapshot(); err != nil {
			t.Fatalf("clean snapshot %d: %v", i, err)
		}
	}

	// Phase 2 — chaos: the disk goes bad while concurrent traffic and
	// control-plane beats keep hammering the server.
	inj.FailProb("fs.createtemp", 0.25+0.5*rng.Float64(), nil)
	inj.FailProb("fs.rename", 0.25+0.5*rng.Float64(), nil)
	inj.FailProb("fs.sync", 0.3*rng.Float64(), nil)
	inj.PartialWrites("fs.write", 0.3*rng.Float64())
	inj.Latency("fs.write", time.Duration(rng.Intn(100))*time.Millisecond, 0.2)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed<<8 | int64(w)))
			for i := 0; i < 40; i++ {
				id := 1 + wrng.Intn(k)
				switch wrng.Intn(4) {
				case 0:
					fire(srv, "POST", fmt.Sprintf("/v1/db/%d/login", id), "")
				case 1:
					fire(srv, "POST", fmt.Sprintf("/v1/db/%d/logout", id), "")
				case 2:
					fire(srv, "GET", fmt.Sprintf("/v1/db/%d", id), "")
				case 3:
					fire(srv, "GET", "/v1/kpi", "")
				}
			}
		}(w)
	}
	for beat := 0; beat < 6; beat++ {
		clock.Set(t0.Add(3*day + time.Duration(9+beat)*time.Hour))
		fire(srv, "POST", "/v1/ops/resume", "")
		if rng.Intn(2) == 0 {
			fire(srv, "POST", "/v1/ops/snapshot", "") // may fail; that's the point
		}
	}
	wg.Wait()

	// Phase 3 — kill. Close under active faults: the final snapshot may or
	// may not land, mimicking a crash with a half-hearted disk.
	_ = srv.Close()

	// Post-mortem damage to the primary snapshot: the .bak chain is what
	// the restore path must save us with.
	if data, err := os.ReadFile(snap); err == nil {
		switch rng.Intn(4) {
		case 0: // leave the corpse as-is
		case 1: // bit rot
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			os.WriteFile(snap, data, 0o644)
		case 2: // the file vanished (crash between the two renames)
			os.Remove(snap)
		case 3: // torn write: truncate to a random prefix
			os.WriteFile(snap, data[:rng.Intn(len(data))], 0o644)
		}
	}
	inj.HealAll()

	// Phase 4 — restore. Boot must succeed and every database must be
	// present and serviceable.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("restore after kill: %v", err)
	}
	defer srv2.Close()
	if got := srv2.Fleet().Size(); got != k {
		t.Fatalf("lost databases: restored %d of %d", got, k)
	}
	for id := 1; id <= k; id++ {
		if _, err := srv2.Fleet().State(id); err != nil {
			t.Fatalf("database %d lost after restore: %v", id, err)
		}
	}
	// The restored fleet serves: a control-plane beat and a fresh login.
	clock.Set(t0.Add(4*day + 9*time.Hour))
	fire(srv2, "POST", "/v1/ops/resume", "")
	req := httptest.NewRequest("POST", "/v1/db/1/login", strings.NewReader(""))
	rec := httptest.NewRecorder()
	srv2.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("restored server cannot serve logins: %d %s", rec.Code, rec.Body.String())
	}
}
