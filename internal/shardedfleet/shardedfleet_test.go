package shardedfleet

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"prorp/internal/controlplane"
	"prorp/internal/policy"
	"prorp/internal/predictor"
	"prorp/internal/telemetry"
)

// t0 is 2023-09-01 00:00 UTC, matching the root package's tests.
const t0 = int64(1693526400)

const day = int64(86400)

// testCfg returns a proactive configuration that predicts quickly: 7-day
// history (one matching day clears c = 0.1), 1-hour logical pause.
func testCfg(shards int) Config {
	return Config{
		Shards: shards,
		Policy: policy.Config{
			Mode:            policy.Proactive,
			LogicalPauseSec: 3600,
			Predictor: predictor.Params{
				HistoryDays:  7,
				HorizonHours: 24,
				Confidence:   0.1,
				WindowSec:    3600,
				SlideSec:     300,
				Seasonality:  predictor.Daily,
			},
		},
		Control: controlplane.DefaultConfig(),
	}
}

// cfg28 is testCfg with the paper's 28-day history: a fresh database then
// has no prediction until three matching days accumulate (3/28 >= 0.1), so
// first idles take the logical-pause path.
func cfg28(shards int) Config {
	cfg := testCfg(shards)
	cfg.Policy.Predictor.HistoryDays = 28
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRuntimeBasics(t *testing.T) {
	rt := mustNew(t, cfg28(4))
	if err := rt.Create(1, t0); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create(1, t0); !errors.Is(err, controlplane.ErrDuplicateDatabase) {
		t.Fatalf("duplicate Create = %v", err)
	}
	if _, err := rt.Login(9, t0); !errors.Is(err, controlplane.ErrUnknownDatabase) {
		t.Fatalf("unknown Login = %v", err)
	}
	if rt.Size() != 1 {
		t.Fatalf("Size = %d", rt.Size())
	}

	// A fresh database has no prediction: end of activity takes the
	// logical-pause path and schedules a wake at pauseStart+l.
	eff, err := rt.Logout(1, t0+3600)
	if err != nil || eff.Transition != policy.TransLogicalPause {
		t.Fatalf("Logout = %+v, %v", eff, err)
	}
	if eff.TimerAt != t0+2*3600 {
		t.Fatalf("TimerAt = %d", eff.TimerAt)
	}
	if st, _ := rt.State(1); st != policy.LogicallyPaused {
		t.Fatalf("State = %v", st)
	}

	// The wake finds no prediction and physically pauses.
	eff, err = rt.Wake(1, eff.TimerAt)
	if err != nil || eff.Transition != policy.TransPhysicalPause {
		t.Fatalf("Wake = %+v, %v", eff, err)
	}
	if rt.PausedCount() != 1 {
		t.Fatalf("PausedCount = %d", rt.PausedCount())
	}

	// The next login is a cold (reactive) resume and clears the metadata.
	eff, err = rt.Login(1, t0+20*3600)
	if err != nil || eff.Transition != policy.TransResumeCold {
		t.Fatalf("Login = %+v, %v", eff, err)
	}
	if rt.PausedCount() != 0 {
		t.Fatalf("PausedCount after cold resume = %d", rt.PausedCount())
	}

	kpi := rt.KPI()
	if kpi.Events[controlplane.KindCreate] != 1 || kpi.Events[controlplane.KindLogin] != 1 ||
		kpi.Events[controlplane.KindLogout] != 1 || kpi.Events[controlplane.KindWake] != 1 ||
		kpi.Records[telemetry.ResumeCold] != 1 || kpi.Records[telemetry.LogicalPause] != 1 ||
		kpi.Records[telemetry.PhysicalPause] != 1 {
		t.Fatalf("KPI = %+v", kpi)
	}

	if err := rt.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Delete(1); !errors.Is(err, controlplane.ErrUnknownDatabase) {
		t.Fatalf("double Delete = %v", err)
	}
	if rt.Size() != 0 {
		t.Fatalf("Size after delete = %d", rt.Size())
	}
}

// driveDailyPattern feeds one database a 09:00–17:00 daily activity pattern
// for the given days and returns the time of the last logout. The machine
// starts active at birth (09:00 of day 0).
func driveDailyPattern(t *testing.T, rt *Runtime, id int, days int) int64 {
	t.Helper()
	birth := t0 + 9*3600
	if err := rt.Create(id, birth); err != nil {
		t.Fatal(err)
	}
	var last int64
	for d := 0; d < days; d++ {
		if d > 0 {
			if _, err := rt.Login(id, t0+int64(d)*day+9*3600); err != nil {
				t.Fatal(err)
			}
		}
		last = t0 + int64(d)*day + 17*3600
		if _, err := rt.Logout(id, last); err != nil {
			t.Fatal(err)
		}
	}
	return last
}

func TestProactiveResumeAcrossShards(t *testing.T) {
	rt := mustNew(t, testCfg(8))
	const dbs = 24
	for id := 0; id < dbs; id++ {
		driveDailyPattern(t, rt, id, 2)
	}
	// Day 1's logout at 17:00 predicts day 2's 09:00 login; 18:00 is more
	// than l ahead of it, so every database physically paused right away.
	if got := rt.PausedCount(); got != dbs {
		t.Fatalf("PausedCount = %d, want %d", got, dbs)
	}

	// Nothing is due the evening before.
	if pws := rt.RunResumeOp(t0 + 1*day + 18*3600); len(pws) != 0 {
		t.Fatalf("due at 18:00 = %v", pws)
	}

	// Minutes ahead of the predicted login every shard's scan finds its
	// databases; the merge returns all of them, sorted.
	pws := rt.RunResumeOp(t0 + 2*day + 9*3600 - 120)
	if len(pws) != dbs {
		t.Fatalf("prewarmed %d databases, want %d", len(pws), dbs)
	}
	for i, pw := range pws {
		if pw.ID != i {
			t.Fatalf("prewarmed[%d].ID = %d (not sorted)", i, pw.ID)
		}
		if pw.Effects.Transition != policy.TransPrewarm || !pw.Effects.Allocate {
			t.Fatalf("prewarmed[%d] = %+v", i, pw.Effects)
		}
	}
	if got := rt.PausedCount(); got != 0 {
		t.Fatalf("PausedCount after resume op = %d", got)
	}

	// The pre-warmed logins land warm.
	for id := 0; id < dbs; id++ {
		eff, err := rt.Login(id, t0+2*day+9*3600)
		if err != nil || eff.Transition != policy.TransResumeWarm || !eff.FromPrewarm {
			t.Fatalf("Login(%d) = %+v, %v", id, eff, err)
		}
	}
	kpi := rt.KPI()
	if kpi.Records[telemetry.Prewarm] != dbs || kpi.Records[telemetry.PrewarmUsed] != dbs ||
		kpi.Records[telemetry.PrewarmWasted] != 0 {
		t.Fatalf("KPI = %+v", kpi)
	}
}

func TestResumeOpFleetWideCap(t *testing.T) {
	cfg := testCfg(8)
	cfg.Control.MaxPrewarmsPerOp = 5
	rt := mustNew(t, cfg)
	const dbs = 12
	for id := 0; id < dbs; id++ {
		driveDailyPattern(t, rt, id, 2)
	}
	at := t0 + 2*day + 9*3600 - 120
	first := rt.RunResumeOp(at)
	if len(first) != 5 {
		t.Fatalf("first op prewarmed %d, want 5 (fleet-wide cap)", len(first))
	}
	// The cap is applied after the cross-shard merge and sort, so the
	// lowest ids win regardless of their shard.
	for i, pw := range first {
		if pw.ID != i {
			t.Fatalf("first[%d].ID = %d", i, pw.ID)
		}
	}
	// Overflow stays queued for the following iterations.
	second := rt.RunResumeOp(at + 60)
	third := rt.RunResumeOp(at + 120)
	if len(second) != 5 || len(third) != 2 {
		t.Fatalf("follow-up ops = %d, %d; want 5, 2", len(second), len(third))
	}
}

// TestPrewarmRechecksDueNotJustPaused is the interleaving a virtual clock
// can stage between a beat's two phases: the scan finds a database due, the
// database then logs in, idles and pauses again under TOMORROW's prediction,
// and only then does the pre-warm phase reach it. It is paused — but no
// longer due, and pre-warming it would hold resources a day early.
func TestPrewarmRechecksDueNotJustPaused(t *testing.T) {
	rt := mustNew(t, testCfg(4))
	driveDailyPattern(t, rt, 0, 2)
	driveDailyPattern(t, rt, 1, 2) // the control: nothing happens to it in between
	beat := t0 + 2*day + 9*3600 - 120
	due := rt.DueForResume(beat)
	if !slices.Equal(due, []int{0, 1}) {
		t.Fatalf("scan found %v due, want both databases", due)
	}

	if _, err := rt.Login(0, beat); err != nil {
		t.Fatal(err)
	}
	if eff, err := rt.Logout(0, beat+2*3600); err != nil || eff.Transition != policy.TransPhysicalPause {
		t.Fatalf("second idle = %+v, %v; want a physical pause under a new prediction", eff, err)
	}
	lead := rt.cfg.Control.PrewarmLeadSec
	var start int64
	if err := rt.View(0, func(m *policy.Machine) { start = m.NextActivity().Start }); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(rt.shardFor(0).part.Due(beat, rt.cfg.Control), 0) {
		t.Fatalf("the new prediction (%d) is due at the beat (%d): the test stages nothing", start, beat)
	}

	pws := rt.PrewarmIDs(beat, due)
	if len(pws) != 1 || pws[0].ID != 1 {
		t.Fatalf("pre-warm phase warmed %+v, want database 1 only: 0 is paused again but not due", pws)
	}
	// Database 0 is now the only one in any store, so its shard's
	// earliest start is its stored prediction.
	if got := rt.shardFor(0).part.NextStart(); got != start {
		t.Fatalf("database 0's stored prediction = %d after the beat; want %d untouched", got, start)
	}
	for _, s := range rt.shards {
		if s.nextStart.Load() != s.part.NextStart() {
			t.Fatalf("published next start %d, store says %d", s.nextStart.Load(), s.part.NextStart())
		}
	}
	// Tomorrow's beat finds it.
	if pws := rt.RunResumeOp(start - lead); len(pws) != 1 || pws[0].ID != 0 {
		t.Fatalf("the beat ahead of the new prediction warmed %+v, want database 0", pws)
	}
}

func TestConcurrentHammer(t *testing.T) {
	// Run with -race: drivers on disjoint databases, the resume op,
	// snapshots, and KPI reads all at once.
	rt := mustNew(t, testCfg(8))
	const (
		drivers  = 8
		dbsPer   = 8
		daysEach = 4
	)
	var wg sync.WaitGroup
	for g := 0; g < drivers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < dbsPer; i++ {
				id := g*dbsPer + i
				if err := rt.Create(id, t0+9*3600); err != nil {
					t.Error(err)
					return
				}
				for d := 0; d < daysEach; d++ {
					if d > 0 {
						if _, err := rt.Login(id, t0+int64(d)*day+9*3600); err != nil {
							t.Error(err)
							return
						}
					}
					if _, err := rt.Logout(id, t0+int64(d)*day+17*3600); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var cp sync.WaitGroup
	cp.Add(1)
	go func() {
		defer cp.Done()
		at := t0
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.RunResumeOp(at)
			rt.PausedCount()
			rt.KPI()
			rt.StateCounts()
			var buf bytes.Buffer
			if _, err := rt.WriteTo(&buf); err != nil {
				t.Error(err)
				return
			}
			at += 60
		}
	}()
	wg.Wait()
	close(stop)
	cp.Wait()
	if got, want := rt.Size(), drivers*dbsPer; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
}

// checkPublished verifies, with every writer and beater stopped, that each
// shard's lock-free hint equals its store's earliest start and that the
// indexed, hint-skipping DueForResume agrees with a look at every database
// of every shard: the due ones are those physically paused under a due
// prediction. ids is the universe of ids ever used.
func checkPublished(t *testing.T, rt *Runtime, ids int, now int64) {
	t.Helper()
	for i, s := range rt.shards {
		s.mu.Lock()
		published, next := s.nextStart.Load(), s.part.NextStart()
		s.mu.Unlock()
		if published != next {
			t.Fatalf("shard %d publishes earliest start %d, its store says %d", i, published, next)
		}
	}
	ctl := rt.cfg.Control
	var want []int
	for id := 0; id < ids; id++ {
		err := rt.View(id, func(m *policy.Machine) {
			if m.State() == policy.PhysicallyPaused && controlplane.Due(m.NextActivity().Start, now, ctl.PrewarmLeadSec, ctl.OpPeriodSec) {
				want = append(want, id)
			}
		})
		if err != nil && !errors.Is(err, controlplane.ErrUnknownDatabase) {
			t.Fatal(err)
		}
	}
	if got := rt.DueForResume(now); !slices.Equal(got, want) {
		t.Fatalf("DueForResume(%d) = %v, scan of every shard %v", now, got, want)
	}
}

func TestPublishedNextStartUnderRace(t *testing.T) {
	// Run with -race. Writers drive every mutation path that can change a
	// shard's earliest start — Login, Logout, Wake, Delete, RestoreDB — on
	// disjoint id ranges while another goroutine beats. A beat may miss a
	// database whose pause it raced (a locked scan would, too), but once
	// the writers stop nothing may be missing: the hint must be exact.
	rt := mustNew(t, testCfg(8))
	const (
		writers = 4
		perW    = 24
		days    = 5
	)
	fail := func(err error) bool {
		if err != nil {
			t.Error(err)
		}
		return err != nil
	}
	for d := 0; d < days; d++ {
		morning := t0 + int64(d)*day + 9*3600
		stop := make(chan struct{})
		var beats sync.WaitGroup
		beats.Add(1)
		go func() {
			defer beats.Done()
			// The beats stay within this morning, where yesterday's
			// predictions come due while their databases log in.
			for k := int64(0); ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				at := morning - 600 + k%20*60
				if k%2 == 0 {
					rt.RunResumeOp(at)
				} else {
					rt.DueForResume(at)
				}
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for id := g * perW; id < (g+1)*perW; id++ {
					if d == 0 {
						if fail(rt.Create(id, morning)) {
							return
						}
					} else if _, err := rt.Login(id, morning); err != nil {
						// Deleted for good on an earlier day.
						if !errors.Is(err, controlplane.ErrUnknownDatabase) || id%8 != 7 {
							t.Error(err)
							return
						}
						continue
					}
					eff, err := rt.Logout(id, morning+8*3600)
					if fail(err) {
						return
					}
					if eff.TimerAt > 0 {
						if _, err := rt.Wake(id, eff.TimerAt); fail(err) {
							return
						}
					}
					switch {
					case id%8 == 3: // move through an archive: Delete + RestoreDB
						var snap bytes.Buffer
						err := rt.View(id, func(m *policy.Machine) { _, err = m.WriteTo(&snap) })
						if fail(err) || fail(rt.Delete(id)) {
							return
						}
						if _, err := rt.RestoreDB(id, &snap); fail(err) {
							return
						}
					case id%8 == 7 && d == days-2: // paused with a prediction, then gone
						if fail(rt.Delete(id)) {
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		beats.Wait()
		// Quiesced: nothing due this evening, everything due tomorrow
		// morning, and the cutoff on and just short of the earliest start.
		first := int64(math.MaxInt64)
		for _, s := range rt.shards {
			if next := s.nextStart.Load(); next > 0 && next < first {
				first = next
			}
		}
		onFirst := first - rt.cfg.Control.PrewarmLeadSec - rt.cfg.Control.OpPeriodSec
		for _, now := range []int64{morning + 9*3600, morning + day - 120, onFirst, onFirst - 1} {
			checkPublished(t, rt, writers*perW, now)
		}
	}
	// The pre-warm phase publishes too: drain the last morning in one beat.
	lastMorning := t0 + int64(days)*day + 9*3600 - 120
	if len(rt.RunResumeOp(lastMorning)) == 0 {
		t.Fatal("nothing due on the last morning; the test lost its predictions")
	}
	checkPublished(t, rt, writers*perW, lastMorning)
}

// TestBeatWithNothingDueTakesNoLock pins the lock-free beat: with every
// shard lock held by someone else, a beat whose cutoff lies before every
// published start must still return.
func TestBeatWithNothingDueTakesNoLock(t *testing.T) {
	rt := mustNew(t, testCfg(8))
	for id := 0; id < 24; id++ {
		driveDailyPattern(t, rt, id, 2)
	}
	for _, s := range rt.shards {
		s.mu.Lock()
	}
	done := make(chan int, 1)
	go func() { done <- len(rt.RunResumeOp(t0 + 1*day + 18*3600)) }()
	select {
	case n := <-done:
		if n != 0 {
			t.Errorf("pre-warmed %d databases the evening before", n)
		}
	case <-time.After(10 * time.Second):
		t.Error("a beat with nothing due waits for a shard lock")
	}
	for _, s := range rt.shards {
		s.mu.Unlock()
	}
}
