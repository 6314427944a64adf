package prorp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prorp/internal/historystore"
)

// fleetDriver is the operation surface of ShardedFleet that the equivalence
// tests drive; the reference Fleet reaches it through fleetRef.
type fleetDriver interface {
	Create(id int, createdAt time.Time) error
	Delete(id int) error
	Login(id int, t time.Time) (Decision, error)
	Idle(id int, t time.Time) (Decision, error)
	Wake(id int, t time.Time) (Decision, error)
	RunResumeOp(now time.Time) []Prewarmed
	State(id int) (State, error)
	Size() int
	PausedCount() int
	History(id int) ([]ActivityEvent, error)
	ExplainPrediction(id int, now time.Time) (windows []PredictionWindow, start, end time.Time, ok bool, err error)
	PlanMaintenance(id int, now time.Time, duration time.Duration, deadline time.Time) (MaintenancePlan, error)
	Snapshot(id int, w io.Writer) error
	Restore(id int, r io.Reader) (wakeAt time.Time, err error)
	WriteTo(w io.Writer) (int64, error)
}

var (
	_ fleetDriver = fleetRef{}
	_ fleetDriver = (*ShardedFleet)(nil)
)

// fleetRef adapts the unsynchronised, paper-shaped Fleet — the reference
// every ShardedFleet oracle compares against — to fleetDriver: per-database
// operations go through the *Database the Fleet hands out.
type fleetRef struct{ *Fleet }

func newFleetRef(t *testing.T, opts Options) fleetRef {
	t.Helper()
	f, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	return fleetRef{f}
}

func (f fleetRef) db(id int) (*Database, error) {
	db, ok := f.Database(id)
	if !ok {
		return nil, fmt.Errorf("prorp: %w: %d", ErrUnknownDatabase, id)
	}
	return db, nil
}

func (f fleetRef) Create(id int, createdAt time.Time) error {
	_, err := f.Fleet.Create(id, createdAt)
	return err
}

func (f fleetRef) State(id int) (State, error) {
	db, err := f.db(id)
	if err != nil {
		return 0, err
	}
	return db.State(), nil
}

func (f fleetRef) History(id int) ([]ActivityEvent, error) {
	db, err := f.db(id)
	if err != nil {
		return nil, err
	}
	var out []ActivityEvent
	for _, e := range db.machine.History().Scan(math.MinInt64, math.MaxInt64) {
		out = append(out, ActivityEvent{
			Time:  time.Unix(e.Time, 0).UTC(),
			Login: e.Type == historystore.EventStart,
		})
	}
	return out, nil
}

func (f fleetRef) ExplainPrediction(id int, now time.Time) (windows []PredictionWindow, start, end time.Time, ok bool, err error) {
	db, err := f.db(id)
	if err != nil {
		return nil, time.Time{}, time.Time{}, false, err
	}
	windows, start, end, ok = db.ExplainPrediction(now)
	return windows, start, end, ok, nil
}

func (f fleetRef) PlanMaintenance(id int, now time.Time, duration time.Duration, deadline time.Time) (MaintenancePlan, error) {
	db, err := f.db(id)
	if err != nil {
		return MaintenancePlan{}, err
	}
	return db.PlanMaintenance(now, duration, deadline)
}

func (f fleetRef) Snapshot(id int, w io.Writer) error {
	db, err := f.db(id)
	if err != nil {
		return err
	}
	_, err = db.WriteTo(w)
	return err
}

func (f fleetRef) Restore(id int, r io.Reader) (time.Time, error) {
	_, wakeAt, err := f.Fleet.Restore(id, r)
	return wakeAt, err
}

// forEachFacade runs test against a fresh fleet of each flavor. mk builds
// further fleets of the same flavor (restore targets).
func forEachFacade(t *testing.T, opts Options, test func(t *testing.T, mk func() fleetDriver)) {
	t.Run("Fleet", func(t *testing.T) {
		test(t, func() fleetDriver { return newFleetRef(t, opts) })
	})
	t.Run("ShardedFleet", func(t *testing.T) {
		test(t, func() fleetDriver {
			sh, err := NewShardedFleetShards(opts, 3)
			if err != nil {
				t.Fatal(err)
			}
			return sh
		})
	})
}

func equivOptions() Options {
	opts := DefaultOptions()
	opts.History = 7 * 24 * time.Hour
	opts.LogicalPause = time.Hour
	return opts
}

// driveScript replays a fixed multi-day workload — staggered daily
// 09:00–17:00 patterns, wake-up delivery, and a resume-op sweep every five
// minutes — and returns a textual trace of every Decision the fleet made.
func driveScript(t *testing.T, f fleetDriver) []string {
	t.Helper()
	const dbs = 10
	const days = 4

	type event struct {
		at    time.Time
		id    int
		login bool
	}
	var script []event
	for id := 0; id < dbs; id++ {
		stagger := time.Duration(id) * time.Minute
		if err := f.Create(id, t0.Add(9*time.Hour+stagger)); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < days; d++ {
			base := t0.Add(time.Duration(d) * 24 * time.Hour)
			if d > 0 {
				script = append(script, event{base.Add(9*time.Hour + stagger), id, true})
			}
			script = append(script, event{base.Add(17*time.Hour + stagger), id, false})
		}
	}
	sort.Slice(script, func(i, j int) bool {
		if !script[i].at.Equal(script[j].at) {
			return script[i].at.Before(script[j].at)
		}
		return script[i].id < script[j].id
	})

	var trace []string
	pending := make(map[int]time.Time)
	record := func(kind string, id int, d Decision) {
		trace = append(trace, fmt.Sprintf("%s %d %+v", kind, id, d))
		if d.WakeAt.IsZero() {
			delete(pending, id)
		} else {
			pending[id] = d.WakeAt
		}
	}
	// advance delivers due wake-ups (in id order for determinism) up to now.
	advance := func(now time.Time) {
		for {
			due := -1
			for id, at := range pending {
				if !at.After(now) && (due < 0 || id < due) {
					due = id
				}
			}
			if due < 0 {
				return
			}
			at := pending[due]
			d, err := f.Wake(due, at)
			if err != nil {
				t.Fatal(err)
			}
			record("wake", due, d)
		}
	}

	next := 0
	for tick := t0; !tick.After(t0.Add((days + 1) * 24 * time.Hour)); tick = tick.Add(5 * time.Minute) {
		for next < len(script) && !script[next].at.After(tick) {
			ev := script[next]
			next++
			advance(ev.at)
			var (
				d   Decision
				err error
			)
			kind := "idle"
			if ev.login {
				kind = "login"
				d, err = f.Login(ev.id, ev.at)
			} else {
				d, err = f.Idle(ev.id, ev.at)
			}
			if err != nil {
				t.Fatal(err)
			}
			record(kind, ev.id, d)
		}
		advance(tick)
		for _, pw := range f.RunResumeOp(tick) {
			record("prewarm", pw.ID, pw.Decision)
		}
		trace = append(trace, fmt.Sprintf("paused %d @%d", f.PausedCount(), tick.Unix()))
	}
	for id := 0; id < dbs; id++ {
		st, err := f.State(id)
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, fmt.Sprintf("state %d %v", id, st))
	}
	return trace
}

func TestShardedFleetMirrorsFleet(t *testing.T) {
	// The sharded runtime must be observationally identical to the
	// unsynchronised reference fleet: same decisions, same resume-op prewarm
	// sets, same states.
	sh, err := NewShardedFleetShards(equivOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}

	want := driveScript(t, newFleetRef(t, equivOptions()))
	got := driveScript(t, sh)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: sharded %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace[%d]:\nsharded:   %s\nreference: %s", i, got[i], want[i])
		}
	}
}

func TestShardedFleetConcurrentMatchesReplay(t *testing.T) {
	// Goroutines drive disjoint databases concurrently; the result must be
	// byte-identical (per-database snapshots) to a single-threaded replay of
	// the same per-database sequences, and the KPI counters must equal the
	// replay's transition tally.
	opts := equivOptions()
	sh, err := NewShardedFleetShards(opts, 5)
	if err != nil {
		t.Fatal(err)
	}

	const dbs = 16
	const cycles = 20
	for id := 0; id < dbs; id++ {
		if err := sh.Create(id, t0.Add(time.Duration(id)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for id := 0; id < dbs; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := t0.Add(time.Duration(id) * time.Second)
			for c := 0; c < cycles; c++ {
				at = at.Add(30 * time.Minute)
				if _, err := sh.Idle(id, at); err != nil {
					t.Error(err)
					return
				}
				at = at.Add(30 * time.Minute)
				if _, err := sh.Login(id, at); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Single-threaded replay on the plain Fleet.
	fl, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wantKPI FleetKPI
	tally := func(d Decision) {
		switch d.Event {
		case EventResumeWarm:
			wantKPI.WarmResumes++
		case EventResumeCold:
			wantKPI.ColdResumes++
		case EventLogicalPause:
			wantKPI.LogicalPauses++
		case EventPhysicalPause:
			wantKPI.PhysicalPauses++
		}
	}
	for id := 0; id < dbs; id++ {
		if _, err := fl.Create(id, t0.Add(time.Duration(id)*time.Second)); err != nil {
			t.Fatal(err)
		}
		at := t0.Add(time.Duration(id) * time.Second)
		for c := 0; c < cycles; c++ {
			at = at.Add(30 * time.Minute)
			d, err := fl.Idle(id, at)
			if err != nil {
				t.Fatal(err)
			}
			tally(d)
			at = at.Add(30 * time.Minute)
			d, err = fl.Login(id, at)
			if err != nil {
				t.Fatal(err)
			}
			tally(d)
		}
	}

	for id := 0; id < dbs; id++ {
		var got, want bytes.Buffer
		if err := sh.Snapshot(id, &got); err != nil {
			t.Fatal(err)
		}
		db, _ := fl.Database(id)
		if _, err := db.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("database %d snapshot differs from single-threaded replay", id)
		}
	}
	if sh.PausedCount() != fl.PausedCount() {
		t.Fatalf("PausedCount = %d, replay %d", sh.PausedCount(), fl.PausedCount())
	}
	kpi := sh.KPI()
	if kpi.WarmResumes != wantKPI.WarmResumes || kpi.ColdResumes != wantKPI.ColdResumes ||
		kpi.LogicalPauses != wantKPI.LogicalPauses || kpi.PhysicalPauses != wantKPI.PhysicalPauses {
		t.Fatalf("KPI = %+v, replay tally %+v", kpi, wantKPI)
	}
	if kpi.Logins != dbs*cycles || kpi.Logouts != dbs*cycles || kpi.Creates != dbs {
		t.Fatalf("KPI event counts = %+v", kpi)
	}
}

func TestFleetArchiveInterop(t *testing.T) {
	// Archives move freely between ShardedFleet and Fleet: same wire
	// format, same restored states, same pending wakes.
	// The default 28-day history keeps database 4 unpredicted after its
	// single login, so it logically pauses (pending wake); databases 0..3
	// run a four-day daily pattern — enough matching days to predict — and
	// end physically paused; database 5 stays active.
	opts := DefaultOptions()
	opts.LogicalPause = time.Hour
	ref := newFleetRef(t, opts)
	for id := 0; id < 4; id++ {
		if err := ref.Create(id, t0.Add(9*time.Hour)); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 4; d++ {
			base := t0.Add(time.Duration(d) * 24 * time.Hour)
			if d > 0 {
				if _, err := ref.Login(id, base.Add(9*time.Hour)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ref.Idle(id, base.Add(17*time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ref.Create(4, t0.Add(9*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Idle(4, t0.Add(10*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Create(5, t0.Add(9*time.Hour)); err != nil {
		t.Fatal(err)
	}

	wantState := func(t *testing.T, f fleetDriver) {
		t.Helper()
		for id := 0; id < 6; id++ {
			want, err := ref.State(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.State(id)
			if err != nil || got != want {
				t.Fatalf("State(%d) = %v, %v; want %v", id, got, err, want)
			}
		}
	}

	var fleetArchive bytes.Buffer
	if _, err := ref.WriteTo(&fleetArchive); err != nil {
		t.Fatal(err)
	}

	// Fleet archive -> ShardedFleet.
	sh, shWakes, err := RestoreShardedFleet(opts, 3, bytes.NewReader(fleetArchive.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Size() != 6 || sh.PausedCount() != ref.PausedCount() {
		t.Fatalf("restored sharded: Size %d PausedCount %d", sh.Size(), sh.PausedCount())
	}
	wantState(t, sh)
	if len(shWakes) != 1 || shWakes[0].ID != 4 || !shWakes[0].WakeAt.Equal(t0.Add(11*time.Hour)) {
		t.Fatalf("sharded pending wakes = %+v", shWakes)
	}

	// ShardedFleet archive -> Fleet. The sharded fleet writes members in
	// id order, so the bytes match the Fleet archive exactly.
	var shardedArchive bytes.Buffer
	if _, err := sh.WriteTo(&shardedArchive); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardedArchive.Bytes(), fleetArchive.Bytes()) {
		t.Fatal("sharded archive bytes differ from Fleet archive")
	}
	fl2, flWakes, err := RestoreFleet(opts, bytes.NewReader(shardedArchive.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ref2 := fleetRef{fl2}
	wantState(t, ref2)
	if len(flWakes) != 1 || flWakes[0].ID != 4 {
		t.Fatalf("Fleet pending wakes = %+v", flWakes)
	}

	// Both restored fleets run the same live resume op.
	at := t0.Add(4*24*time.Hour + 9*time.Hour).Add(-2 * time.Minute)
	shPws := sh.RunResumeOp(at)
	flPws := ref2.RunResumeOp(at)
	if len(shPws) != 4 || len(flPws) != 4 {
		t.Fatalf("resume ops after restore: sharded %d, Fleet %d", len(shPws), len(flPws))
	}

	// Single-database snapshots interoperate too.
	var one bytes.Buffer
	if err := sh.Snapshot(4, &one); err != nil {
		t.Fatal(err)
	}
	wakeAt, err := newFleetRef(t, opts).Restore(4, &one)
	if err != nil {
		t.Fatal(err)
	}
	if !wakeAt.Equal(t0.Add(11 * time.Hour)) {
		t.Fatalf("single-db restore wakeAt = %v", wakeAt)
	}
}

func TestFacadeBasics(t *testing.T) {
	// The default 28-day history keeps a fresh database unpredicted, so
	// the first idle takes the logical-pause path.
	forEachFacade(t, DefaultOptions(), func(t *testing.T, mk func() fleetDriver) {
		f := mk()
		if err := f.Create(1, t0); err != nil {
			t.Fatal(err)
		}
		if err := f.Create(1, t0); !errors.Is(err, ErrDuplicateDatabase) {
			t.Fatalf("duplicate Create = %v", err)
		}
		if f.Size() != 1 {
			t.Fatalf("Size = %d", f.Size())
		}
		d, err := f.Idle(1, t0.Add(time.Hour))
		if err != nil || d.Event != EventLogicalPause {
			t.Fatalf("Idle = %+v, %v", d, err)
		}
		st, err := f.State(1)
		if err != nil || st != LogicallyPaused {
			t.Fatalf("State = %v, %v", st, err)
		}

		// A logically paused database snapshots and restores into another
		// fleet of the same flavor with its wake-up still owed.
		var snap bytes.Buffer
		if err := f.Snapshot(1, &snap); err != nil {
			t.Fatal(err)
		}
		f2 := mk()
		wakeAt, err := f2.Restore(1, &snap)
		if err != nil {
			t.Fatal(err)
		}
		if !wakeAt.Equal(d.WakeAt) {
			t.Fatalf("restore wakeAt = %v, want %v", wakeAt, d.WakeAt)
		}
		if st, _ := f2.State(1); st != LogicallyPaused {
			t.Fatalf("restored state = %v", st)
		}

		if _, err := f.Wake(1, d.WakeAt); err != nil {
			t.Fatal(err)
		}
		if f.PausedCount() != 1 {
			t.Fatalf("PausedCount = %d", f.PausedCount())
		}
		if _, err := f.Login(1, t0.Add(20*time.Hour)); err != nil {
			t.Fatal(err)
		}

		// Every per-database operation rejects an unknown id, typed.
		unknown := map[string]func() error{
			"Login":    func() error { _, err := f.Login(9, t0); return err },
			"Idle":     func() error { _, err := f.Idle(9, t0); return err },
			"Wake":     func() error { _, err := f.Wake(9, t0); return err },
			"Delete":   func() error { return f.Delete(9) },
			"State":    func() error { _, err := f.State(9); return err },
			"History":  func() error { _, err := f.History(9); return err },
			"Snapshot": func() error { return f.Snapshot(9, &bytes.Buffer{}) },
			"ExplainPrediction": func() error {
				_, _, _, _, err := f.ExplainPrediction(9, t0)
				return err
			},
			"PlanMaintenance": func() error {
				_, err := f.PlanMaintenance(9, t0, time.Minute, t0.Add(time.Hour))
				return err
			},
		}
		for name, op := range unknown {
			if err := op(); !errors.Is(err, ErrUnknownDatabase) {
				t.Errorf("%s(9) = %v, want ErrUnknownDatabase", name, err)
			}
		}
	})
}

func TestFacadeDeleteExplainPrediction(t *testing.T) {
	forEachFacade(t, equivOptions(), func(t *testing.T, mk func() fleetDriver) {
		f := mk()
		for id := 0; id < 2; id++ {
			if err := f.Create(id, t0.Add(9*time.Hour)); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < 2; d++ {
				base := t0.Add(time.Duration(d) * 24 * time.Hour)
				if d > 0 {
					if _, err := f.Login(id, base.Add(9*time.Hour)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := f.Idle(id, base.Add(17*time.Hour)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if f.PausedCount() != 2 {
			t.Fatalf("PausedCount = %d", f.PausedCount())
		}

		// ExplainPrediction reports the qualifying window behind the pause.
		windows, start, _, ok, err := f.ExplainPrediction(0, t0.Add(1*24*time.Hour+18*time.Hour))
		if err != nil || !ok {
			t.Fatalf("ExplainPrediction = ok=%v, %v", ok, err)
		}
		if len(windows) == 0 {
			t.Fatal("ExplainPrediction returned no windows")
		}
		if start.IsZero() {
			t.Fatal("ExplainPrediction returned zero start")
		}
		// The returned windows are the scan's only allocation: a GET costs
		// one slice, not an intermediate []WindowStat plus its conversion.
		at := t0.Add(1*24*time.Hour + 18*time.Hour)
		if allocs := testing.AllocsPerRun(50, func() { f.ExplainPrediction(0, at) }); allocs > 1 {
			t.Errorf("ExplainPrediction allocates %v times per call, want 1", allocs)
		}

		// Deleting a paused database clears its control-plane metadata: the
		// pending proactive resume cannot fire.
		if err := f.Delete(0); err != nil {
			t.Fatal(err)
		}
		if err := f.Delete(0); err == nil {
			t.Fatal("double Delete succeeded")
		}
		if f.Size() != 1 || f.PausedCount() != 1 {
			t.Fatalf("after Delete: Size %d PausedCount %d", f.Size(), f.PausedCount())
		}
		pws := f.RunResumeOp(t0.Add(2*24*time.Hour + 9*time.Hour).Add(-2 * time.Minute))
		if len(pws) != 1 || pws[0].ID != 1 {
			t.Fatalf("resume op after Delete = %+v", pws)
		}
	})
}

// TestHistoryFacadeEquivalence drives the same multi-day workload through
// the reference Fleet and the ShardedFleet and requires History to return
// event-for-event identical results.
func TestHistoryFacadeEquivalence(t *testing.T) {
	ref := newFleetRef(t, equivOptions())
	sh, err := NewShardedFleetShards(equivOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}

	const dbs = 5
	day := 24 * time.Hour
	for id := 1; id <= dbs; id++ {
		if err := ref.Create(id, t0); err != nil {
			t.Fatal(err)
		}
		if err := sh.Create(id, t0); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 4; d++ {
		for id := 1; id <= dbs; id++ {
			in := t0.Add(time.Duration(d)*day + time.Duration(8+id)*time.Hour)
			out := in.Add(time.Duration(2+id) * time.Hour)
			if _, err := ref.Login(id, in); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.Login(id, in); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Idle(id, out); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.Idle(id, out); err != nil {
				t.Fatal(err)
			}
		}
	}

	for id := 1; id <= dbs; id++ {
		want, err := ref.History(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.History(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("db %d: reference history is empty", id)
		}
		if len(got) != len(want) {
			t.Fatalf("db %d: sharded history has %d events, reference %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("db %d event %d: sharded %+v, reference %+v", id, i, got[i], want[i])
			}
		}
		for i := 1; i < len(want); i++ {
			if want[i].Time.Before(want[i-1].Time) {
				t.Fatalf("db %d: history out of order at %d: %+v", id, i, want)
			}
		}
	}
}

// TestShardedFleetStartsNoGoroutine pins the one-apply-path contract: a
// fleet owns no worker, so building fleets and dropping them without Close
// leaks nothing — and the Algorithm 5 beat, steady or draining a backlog
// under the cap, runs on its caller and leaves no goroutine behind either.
func TestShardedFleetStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	fleets := make([]*ShardedFleet, 100)
	for i := range fleets {
		sh, err := NewShardedFleet(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.Create(i, t0); err != nil {
			t.Fatal(err)
		}
		fleets[i] = sh
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("100 fleets grew the goroutine count from %d to %d", before, after)
	}
	runtime.KeepAlive(fleets)

	// 250 databases with a 09:00 habit, paused overnight: beats the evening
	// before find nothing, the morning's drain 100, 100 and 50.
	opts := DefaultOptions()
	opts.History = 7 * 24 * time.Hour // one matching day clears c = 0.1
	sh, err := NewShardedFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	const dbs = 250
	morning := t0.Add(9 * time.Hour)
	for id := 0; id < dbs; id++ {
		sh.Create(id, morning)
		sh.Idle(id, morning.Add(time.Hour))
		sh.Login(id, morning.Add(24*time.Hour))
		sh.Idle(id, morning.Add(25*time.Hour))
	}
	if got := sh.PausedCount(); got != dbs {
		t.Fatalf("%d of %d databases physically paused", got, dbs)
	}
	for beat := 0; beat < 10; beat++ {
		if pws := sh.RunResumeOp(morning.Add(26*time.Hour + time.Duration(beat)*time.Minute)); len(pws) != 0 {
			t.Fatalf("steady beat %d pre-warmed %d databases", beat, len(pws))
		}
	}
	for beat, want := range []int{100, 100, 50, 0} {
		if pws := sh.RunResumeOp(morning.Add(48*time.Hour + time.Duration(beat)*time.Minute)); len(pws) != want {
			t.Fatalf("backlog beat %d pre-warmed %d databases, want %d", beat, len(pws), want)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("beats grew the goroutine count from %d to %d", before, after)
	}
}

// inspection is what one Inspect call reports.
type inspection struct {
	st         State
	start, end time.Time
	ok         bool
}

// officeFleet is a one-database ShardedFleet with three 09:00–17:00 days
// behind it, and the midnight the fourth day starts at.
func officeFleet(t *testing.T) (*ShardedFleet, time.Time) {
	t.Helper()
	sh, err := NewShardedFleetShards(DefaultOptions(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Create(0, t0.Add(9*time.Hour)); err != nil {
		t.Fatal(err)
	}
	const day = 24 * time.Hour
	for d := 0; d < 3; d++ {
		if d > 0 {
			sh.Login(0, t0.Add(time.Duration(d)*day+9*time.Hour))
		}
		sh.Idle(0, t0.Add(time.Duration(d)*day+17*time.Hour))
	}
	return sh, t0.Add(3 * day)
}

// TestInspectMatchesStateAndExplain: Inspect is State plus
// ExplainPrediction's prediction, with the windows only on request, and the
// form behind a plain GET allocates nothing.
func TestInspectMatchesStateAndExplain(t *testing.T) {
	sh, day3 := officeFleet(t)
	at := day3.Add(8 * time.Hour)

	wantSt, err := sh.State(0)
	if err != nil {
		t.Fatal(err)
	}
	wantWindows, wantStart, wantEnd, wantOK, err := sh.ExplainPrediction(0, at)
	if err != nil || !wantOK {
		t.Fatalf("ExplainPrediction = ok=%v, %v", wantOK, err)
	}
	for _, withWindows := range []bool{false, true} {
		st, windows, start, end, ok, err := sh.Inspect(0, at, withWindows)
		if err != nil {
			t.Fatal(err)
		}
		if st != wantSt || !start.Equal(wantStart) || !end.Equal(wantEnd) || ok != wantOK {
			t.Errorf("Inspect(windows=%v) = %v %v–%v ok=%v, want %v %v–%v ok=%v",
				withWindows, st, start, end, ok, wantSt, wantStart, wantEnd, wantOK)
		}
		if !withWindows && windows != nil {
			t.Errorf("Inspect without windows returned %d of them", len(windows))
		}
		if withWindows && fmt.Sprint(windows) != fmt.Sprint(wantWindows) {
			t.Errorf("Inspect windows differ from ExplainPrediction's")
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { sh.Inspect(0, at, false) }); allocs > 0 {
		t.Errorf("Inspect without windows allocates %v times per call, want 0", allocs)
	}
	if _, _, _, _, _, err := sh.Inspect(9, at, false); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("Inspect(9) = %v, want ErrUnknownDatabase", err)
	}
}

// TestInspectReadsOneInstant toggles a database while a reader inspects it:
// every login moves both the state and the predicted end, so a state from
// before a write paired with a prediction from after it is an instant the
// database was never in. Run under -race (make test does).
func TestInspectReadsOneInstant(t *testing.T) {
	sh, day3 := officeFleet(t)
	at := day3.Add(24*time.Hour + 8*time.Hour) // the toggled day is look-back 1
	inspect := func() inspection {
		st, _, start, end, ok, err := sh.Inspect(0, at, false)
		if err != nil {
			t.Error(err)
		}
		return inspection{st, start, end, ok}
	}

	// The writer stops once enough reads have overlapped one of its writes,
	// or at maxOps (the toggled seconds must stay inside the first window).
	const (
		maxOps      = 5000
		wantOverlap = 200
	)
	var (
		seq      atomic.Int64              // 2·completed ops, +1 while one is in flight
		instants = []inspection{inspect()} // instants[k]: the database after k ops
		enough   atomic.Bool
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		for k := 0; k < maxOps && !enough.Load(); k++ {
			ts := day3.Add(9*time.Hour + time.Duration(k)*time.Second)
			seq.Add(1)
			if k%2 == 0 {
				sh.Login(0, ts)
			} else {
				sh.Idle(0, ts)
			}
			instants = append(instants, inspect())
			seq.Add(1)
		}
	}()

	type observed struct {
		inspection
		before, after int64
	}
	var seen []observed // the reads a write overlapped
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		before := seq.Load()
		got := inspect()
		after := seq.Load()
		if after != before {
			seen = append(seen, observed{got, before, after})
			enough.Store(len(seen) >= wantOverlap)
		}
	}
	t.Logf("%d ops, %d reads overlapped a write", len(instants)-1, len(seen))

	for k := 1; k < len(instants); k++ {
		if instants[k] == instants[k-1] {
			t.Fatalf("op %d changed neither state nor prediction (%+v): the test cannot tell instants apart", k, instants[k])
		}
	}
	for _, o := range seen {
		// The call began with before/2 ops complete and ended with at most
		// (after+1)/2 begun: it saw one of the instants in between.
		lo, hi := o.before/2, (o.after+1)/2
		matched := false
		for k := lo; k <= hi && !matched; k++ {
			matched = instants[k] == o.inspection
		}
		if !matched {
			t.Fatalf("Inspect returned %v until %v, which is none of instants %d..%d (%v until %v .. %v until %v)",
				o.st, o.end, lo, hi, instants[lo].st, instants[lo].end, instants[hi].st, instants[hi].end)
		}
	}
}

// TestShardedFleetDecisionsAllocateNothing: a login, idle and wake on an
// existing database translate and count their transitions without
// allocating.
func TestShardedFleetDecisionsAllocateNothing(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = Reactive
	sh, err := NewShardedFleetShards(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Create(0, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Idle(0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Each cycle resumes from the logical pause, pauses again, and wakes
	// inside the pause.
	login, idle, wake := t0.Add(2*time.Hour), t0.Add(3*time.Hour), t0.Add(4*time.Hour)
	var got [3]Decision
	var errs [3]error
	allocs := testing.AllocsPerRun(50, func() {
		got[0], errs[0] = sh.Login(0, login)
		got[1], errs[1] = sh.Idle(0, idle)
		got[2], errs[2] = sh.Wake(0, wake)
	})
	want := [3]Event{EventResumeWarm, EventLogicalPause, EventStayLogical}
	for i, d := range got {
		if errs[i] != nil || d.Event != want[i] {
			t.Fatalf("decision %d = %v, %v; want %v", i, d.Event, errs[i], want[i])
		}
	}
	if allocs > 0 {
		t.Errorf("Login/Idle/Wake allocate %v times per cycle, want 0", allocs)
	}
}
