package policy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// machineDriver feeds a machine a random but protocol-respecting event
// sequence (logins only while idle, activity ends only while active,
// timers and prewarms at any point, time strictly increasing) and checks
// the state-machine invariants after every step.
type machineDriver struct {
	t       *testing.T
	m       *Machine
	now     int64
	pending int64 // the timer the effects so far leave pending
}

func (d *machineDriver) step(rng *rand.Rand) bool {
	d.now += 1 + rng.Int63n(6*hour)
	before := d.m.State()
	wasActive := d.m.Active()

	var eff Effects
	var op string
	switch choice := rng.Intn(10); {
	case choice < 4 && !wasActive:
		op = "login"
		eff = d.m.OnActivityStart(d.now)
	case choice < 4 && wasActive:
		op = "idle"
		eff = d.m.OnActivityEnd(d.now)
	case choice < 7:
		op = "timer"
		eff = d.m.OnTimer(d.now)
	case choice < 9:
		op = "prewarm"
		eff = d.m.OnPrewarm(d.now)
	default:
		if wasActive {
			op = "idle"
			eff = d.m.OnActivityEnd(d.now)
		} else {
			op = "login"
			eff = d.m.OnActivityStart(d.now)
		}
	}
	return d.check(op, before, wasActive, eff)
}

func (d *machineDriver) check(op string, before State, wasActive bool, eff Effects) bool {
	t, m, now := d.t, d.m, d.now
	after := m.State()

	// Timer sanity: never scheduled in the past, and TimerAt is always the
	// complete timer state — a no-op reports the pending timer unchanged
	// (overdue, if nobody delivered it), so a caller reconciling on every
	// effect never cancels a wake-up it still owes.
	if eff.Transition == TransNone && eff.TimerAt != d.pending {
		t.Errorf("%s at %d: no-op reports timer %d, pending %d", op, now, eff.TimerAt, d.pending)
		return false
	}
	if eff.Transition != TransNone && eff.TimerAt != 0 && eff.TimerAt < now {
		t.Errorf("%s at %d: timer in the past (%d)", op, now, eff.TimerAt)
		return false
	}
	d.pending = eff.TimerAt
	// Active databases are always in the Resumed state with resources.
	if m.Active() && after != Resumed {
		t.Errorf("%s at %d: active in state %v", op, now, after)
		return false
	}
	// Reclaim accompanies exactly the transition into physical pause.
	if eff.Reclaim != (eff.Transition == TransPhysicalPause) {
		t.Errorf("%s at %d: reclaim=%v on %v", op, now, eff.Reclaim, eff.Transition)
		return false
	}
	if eff.Transition == TransPhysicalPause && after != PhysicallyPaused {
		t.Errorf("%s at %d: physical-pause left state %v", op, now, after)
		return false
	}
	// Allocation only on cold resumes and prewarms (warm paths already
	// hold resources).
	if eff.Allocate && eff.Transition != TransResumeCold && eff.Transition != TransPrewarm {
		t.Errorf("%s at %d: allocate on %v", op, now, eff.Transition)
		return false
	}
	if eff.Transition == TransResumeCold && before != PhysicallyPaused {
		t.Errorf("%s at %d: cold resume from %v", op, now, before)
		return false
	}
	if eff.Transition == TransResumeWarm && before == PhysicallyPaused {
		t.Errorf("%s at %d: warm resume from physical pause", op, now)
		return false
	}
	// Metadata writes happen only on proactive physical pauses.
	if eff.MetadataSet && eff.Transition != TransPhysicalPause {
		t.Errorf("%s at %d: metadata write on %v", op, now, eff.Transition)
		return false
	}
	// A physically paused machine must never hold a timer.
	if after == PhysicallyPaused && eff.TimerAt != 0 {
		t.Errorf("%s at %d: timer %d while physically paused", op, now, eff.TimerAt)
		return false
	}
	// Logical pause must always re-arm or keep a wake-up: without one the
	// database would leak allocated-idle resources forever.
	switch eff.Transition {
	case TransLogicalPause, TransStayLogical, TransPrewarm:
		if eff.TimerAt == 0 {
			t.Errorf("%s at %d: %v without a timer", op, now, eff.Transition)
			return false
		}
	}
	// History timestamps never exceed the clock.
	if maxTS, ok := m.History().MaxTimestamp(); ok && maxTS > now {
		t.Errorf("%s at %d: history tuple in the future (%d)", op, now, maxTS)
		return false
	}
	return true
}

func TestRandomizedMachineInvariantsProactive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Predictor.HistoryDays = 3 + rng.Intn(10)
		m, err := New(cfg, 500*day)
		if err != nil {
			t.Fatal(err)
		}
		d := &machineDriver{t: t, m: m, now: 500 * day}
		for i := 0; i < 400; i++ {
			if !d.step(rng) {
				t.Fatalf("seed %d failed at step %d", seed, i)
			}
		}
	}
}

func TestRandomizedMachineInvariantsReactive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Mode: Reactive, LogicalPauseSec: 1 + rng.Int63n(10*hour)}
		m, err := New(cfg, 500*day)
		if err != nil {
			t.Fatal(err)
		}
		d := &machineDriver{t: t, m: m, now: 500 * day}
		for i := 0; i < 400; i++ {
			if !d.step(rng) {
				t.Fatalf("seed %d failed at step %d", seed, i)
			}
		}
	}
}

// Property: whatever the event sequence, history stays bounded by the
// retention window (Algorithm 3 keeps it compact).
func TestQuickHistoryStaysBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Predictor.HistoryDays = 7
		m, err := New(cfg, 500*day)
		if err != nil {
			return false
		}
		now := 500 * day
		for i := 0; i < 600; i++ {
			now += 1 + rng.Int63n(4*hour)
			if m.Active() {
				m.OnActivityEnd(now)
			} else if rng.Intn(2) == 0 {
				m.OnActivityStart(now)
			} else {
				m.OnTimer(now)
			}
		}
		// 7 days of retention at <= ~24 events/day (plus the lifespan
		// marker and the current day's churn) stays well under 400.
		return m.History().Len() < 400
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the wake time returned on entering logical pause is exactly
// the first instant at which the literal line-19 wait condition fails.
func TestQuickWakeTimeIsWaitBoundary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Predictor.HistoryDays = 5
		m, err := New(cfg, 500*day)
		if err != nil {
			return false
		}
		now := 500*day + 1000
		// Random warm-up.
		for i := 0; i < 50; i++ {
			now += 1 + rng.Int63n(8*hour)
			if m.Active() {
				m.OnActivityEnd(now)
			} else {
				m.OnActivityStart(now)
			}
		}
		if m.Active() {
			now += 1 + rng.Int63n(hour)
			eff := m.OnActivityEnd(now)
			if eff.Transition != TransLogicalPause {
				return true // physically paused immediately; nothing to check
			}
			w := eff.TimerAt
			// Strictly before w the wait may hold... at w it must not,
			// except when w == now (degenerate, handled by OnTimer).
			if w > now && m.waitHolds(w) {
				return false
			}
			if w > now+1 && !m.waitHolds(now) && w != m.pauseStart+cfg.LogicalPauseSec {
				// If the wait did not hold at entry the wake must be
				// immediate (or the new-database pause end).
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
