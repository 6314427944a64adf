package policy

import (
	"slices"
	"testing"

	"prorp/internal/historystore"
	"prorp/internal/telemetry"
)

const (
	day  = int64(historystore.SecondsPerDay)
	hour = int64(3600)
)

// newOldProactive builds a proactive machine whose history contains a
// perfect two-session daily pattern (9:00-12:00 and 15:00-17:00) over
// `days` days ending at `base`, leaving the machine Resumed and active at
// base+9h. Two logins a day matter: the predictor's "end of predicted
// activity" is the latest *login* inside the window (Figure 5), so a
// single-login pattern would predict Start == End.
//
// With the default 7 h window the machine's prediction at base+9h is
// {start: base+9h, end: base+9h} (made the previous evening for the 9:00
// login).
func newOldProactive(t *testing.T, base int64, days int) (*Machine, int64) {
	t.Helper()
	m, err := New(DefaultConfig(), base-int64(days)*day+9*hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := days; i >= 1; i-- {
		dayStart := base - int64(i)*day
		if i < days {
			m.OnActivityStart(dayStart + 9*hour)
		}
		m.OnActivityEnd(dayStart + 12*hour)
		m.OnActivityStart(dayStart + 15*hour)
		m.OnActivityEnd(dayStart + 17*hour)
	}
	eff := m.OnActivityStart(base + 9*hour)
	if eff.Transition == TransNone {
		t.Fatal("setup: final login ignored")
	}
	return m, base + 9*hour
}

func TestNewStartsResumedActive(t *testing.T) {
	m, err := New(DefaultConfig(), 1000*day)
	if err != nil {
		t.Fatal(err)
	}
	if m.State() != Resumed || !m.Active() {
		t.Fatalf("new machine state=%v active=%v, want resumed/active", m.State(), m.Active())
	}
	if m.History().Len() != 1 {
		t.Fatalf("birth login not recorded: history len %d", m.History().Len())
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LogicalPauseSec = 0
	if _, err := New(cfg, 0); err == nil {
		t.Fatal("New accepted zero logical pause")
	}
	cfg = DefaultConfig()
	cfg.Mode = Mode(9)
	if _, err := New(cfg, 0); err == nil {
		t.Fatal("New accepted unknown mode")
	}
	cfg = DefaultConfig()
	cfg.Predictor.Confidence = -1
	if _, err := New(cfg, 0); err == nil {
		t.Fatal("New accepted invalid predictor params")
	}
	// Reactive mode must not require valid predictor params.
	cfg = Config{Mode: Reactive, LogicalPauseSec: 7 * 3600}
	if _, err := New(cfg, 0); err != nil {
		t.Fatalf("reactive config rejected: %v", err)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LogicalPauseSec != 7*3600 {
		t.Errorf("l = %d s, want 7 h", cfg.LogicalPauseSec)
	}
	if cfg.Mode != Proactive {
		t.Errorf("mode = %v, want proactive", cfg.Mode)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- Reactive baseline ---

func TestReactiveLifecycle(t *testing.T) {
	cfg := Config{Mode: Reactive, LogicalPauseSec: 7 * 3600}
	m, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Activity ends: always logical pause with a timer at now+l.
	eff := m.OnActivityEnd(10 * hour)
	if eff.Transition != TransLogicalPause {
		t.Fatalf("transition = %v, want logical-pause", eff.Transition)
	}
	if eff.TimerAt != 17*hour {
		t.Fatalf("timer at %d, want %d (now+l)", eff.TimerAt, 17*hour)
	}
	if m.State() != LogicallyPaused {
		t.Fatalf("state = %v", m.State())
	}

	// Timer fires at now+l: physical pause, no metadata (reactive).
	eff = m.OnTimer(17 * hour)
	if eff.Transition != TransPhysicalPause || !eff.Reclaim {
		t.Fatalf("effects = %+v, want physical pause with reclaim", eff)
	}
	if eff.MetadataSet {
		t.Error("reactive policy wrote prediction metadata")
	}
	if m.State() != PhysicallyPaused {
		t.Fatalf("state = %v", m.State())
	}

	// Login while physically paused: cold (reactive) resume.
	eff = m.OnActivityStart(20 * hour)
	if eff.Transition != TransResumeCold || !eff.Allocate {
		t.Fatalf("effects = %+v, want cold resume with allocate", eff)
	}
	if m.State() != Resumed || !m.Active() {
		t.Fatalf("state = %v active = %v", m.State(), m.Active())
	}
}

func TestReactiveWarmResumeWithinLogicalPause(t *testing.T) {
	cfg := Config{Mode: Reactive, LogicalPauseSec: 7 * 3600}
	m, _ := New(cfg, 0)
	m.OnActivityEnd(10 * hour)
	eff := m.OnActivityStart(12 * hour) // within the 7 h pause
	if eff.Transition != TransResumeWarm {
		t.Fatalf("transition = %v, want resume-warm", eff.Transition)
	}
	if eff.Allocate {
		t.Error("warm resume requested allocation; resources were never reclaimed")
	}
	if eff.FromPrewarm {
		t.Error("reactive warm resume flagged as prewarm")
	}
}

func TestReactiveSpuriousEarlyTimer(t *testing.T) {
	cfg := Config{Mode: Reactive, LogicalPauseSec: 7 * 3600}
	m, _ := New(cfg, 0)
	m.OnActivityEnd(10 * hour)
	eff := m.OnTimer(12 * hour) // before pauseStart+l
	if eff.Transition != TransStayLogical {
		t.Fatalf("transition = %v, want stay-logical", eff.Transition)
	}
	if eff.TimerAt != 17*hour {
		t.Fatalf("re-armed timer at %d, want %d", eff.TimerAt, 17*hour)
	}
	if m.State() != LogicallyPaused {
		t.Fatalf("state = %v", m.State())
	}
}

func TestReactiveSkipsHistory(t *testing.T) {
	cfg := Config{Mode: Reactive, LogicalPauseSec: 7 * 3600}
	m, _ := New(cfg, 0)
	m.OnActivityEnd(10 * hour)
	m.OnActivityStart(12 * hour)
	m.OnActivityEnd(13 * hour)
	if m.History().Len() != 0 {
		t.Fatalf("reactive machine stored %d history tuples, want 0", m.History().Len())
	}
}

// --- Proactive: Algorithm 1 guards ---

func TestProactivePhysicalPauseWhenNextActivityFar(t *testing.T) {
	// Line 10 first disjunct: now+l <= nextActivity.start.
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	if !m.Old() {
		t.Fatal("30-day database not old")
	}
	// Activity ends at 17:00; prediction says next login tomorrow 9:00,
	// which is 16 h away — beyond l = 7 h: immediate physical pause.
	eff := m.OnActivityEnd(loginAt + 8*hour)
	if eff.Transition != TransPhysicalPause {
		t.Fatalf("transition = %v, want physical-pause (next activity 16 h away)", eff.Transition)
	}
	if !eff.Reclaim {
		t.Error("physical pause without reclaim")
	}
	if !eff.MetadataSet {
		t.Fatal("physical pause without metadata write")
	}
	wantStart := base + day + 9*hour
	if eff.MetadataStart != wantStart {
		t.Errorf("metadata start = base+%dh, want base+%dh (tomorrow 9:00)",
			(eff.MetadataStart-base)/hour, (wantStart-base)/hour)
	}
}

func TestProactiveLogicalPauseWhenNextActivityNear(t *testing.T) {
	// Line 10 negated: next start within l hours -> logical pause.
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	// The morning session ends at 12:00; re-prediction from 12:00 finds
	// the 15:00 session, 3 h away — within l = 7 h: logical pause.
	eff := m.OnActivityEnd(loginAt + 3*hour)
	if eff.Transition != TransLogicalPause {
		t.Fatalf("transition = %v, want logical-pause", eff.Transition)
	}
	next := m.NextActivity()
	if next.Start != base+15*hour {
		t.Fatalf("predicted start = base+%dh, want base+15h", (next.Start-base)/hour)
	}
	// The wake-up must be at the predicted end of activity (the 15:00
	// login, the only one inside the earliest qualifying window).
	if eff.TimerAt != base+15*hour {
		t.Errorf("timer at base+%dh, want base+15h", (eff.TimerAt-base)/hour)
	}
}

func TestProactiveNewDatabaseDefaultsToReactive(t *testing.T) {
	// A database younger than h has no reliable prediction: logical pause
	// for l, then physical pause (Section 4 "defaults to reactive").
	m, _ := New(DefaultConfig(), 1000*day)
	eff := m.OnActivityEnd(1000*day + 2*hour)
	if eff.Transition != TransLogicalPause {
		t.Fatalf("transition = %v, want logical-pause for a new database", eff.Transition)
	}
	if eff.TimerAt != 1000*day+9*hour {
		t.Fatalf("timer at %d, want pauseStart+l", eff.TimerAt)
	}
	eff = m.OnTimer(eff.TimerAt)
	if eff.Transition != TransPhysicalPause {
		t.Fatalf("transition = %v, want physical-pause after l idle", eff.Transition)
	}
	// New database has no prediction: metadata start must be 0 so the
	// control plane never pre-warms it.
	if !eff.MetadataSet || eff.MetadataStart != 0 {
		t.Errorf("metadata = %v/%d, want set with start 0", eff.MetadataSet, eff.MetadataStart)
	}
}

func TestProactiveOldDatabaseNoPredictionPausesImmediately(t *testing.T) {
	// Line 10 second disjunct: old && nextActivity.start == 0.
	cfg := DefaultConfig()
	base := 1000 * day
	m, err := New(cfg, base-40*day)
	if err != nil {
		t.Fatal(err)
	}
	// A single burst of activity 40 days ago, nothing since: the database
	// is old (lifespan > h) but recent history is empty of patterns.
	m.OnActivityEnd(base - 40*day + hour)
	m.OnActivityStart(base + hour)
	eff := m.OnActivityEnd(base + 2*hour)
	if !m.Old() {
		t.Fatal("database with 40-day lifespan not old")
	}
	if !m.NextActivity().IsZero() {
		t.Fatalf("unexpected prediction %+v", m.NextActivity())
	}
	if eff.Transition != TransPhysicalPause {
		t.Fatalf("transition = %v, want immediate physical-pause (old, no prediction)", eff.Transition)
	}
}

func TestProactiveWarmResumeDuringPredictedActivity(t *testing.T) {
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	m.OnActivityEnd(loginAt + 3*hour) // 12:00: logical pause, next at 15:00
	if m.State() != LogicallyPaused {
		t.Fatalf("setup: state = %v, want logically-paused", m.State())
	}
	eff := m.OnActivityStart(loginAt + 5*hour) // 14:00, slightly early login
	if eff.Transition != TransResumeWarm {
		t.Fatalf("transition = %v, want resume-warm", eff.Transition)
	}
	if eff.FromPrewarm {
		t.Error("resume flagged FromPrewarm without a prewarm")
	}
	if eff.TimerAt != 0 {
		t.Error("timer left armed after resume")
	}
}

func TestProactivePrewarmThenLogin(t *testing.T) {
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	m.OnActivityEnd(loginAt + 8*hour) // physical pause, next = tomorrow 9:00

	// Algorithm 5: control plane pre-warms 5 minutes ahead.
	prewarmAt := base + day + 9*hour - 300
	eff := m.OnPrewarm(prewarmAt)
	if eff.Transition != TransPrewarm {
		t.Fatalf("transition = %v, want prewarm", eff.Transition)
	}
	if !eff.Allocate {
		t.Error("prewarm did not allocate resources")
	}
	if m.State() != LogicallyPaused {
		t.Fatalf("state = %v, want logically-paused", m.State())
	}

	// Customer logs in on schedule: warm resume attributed to the prewarm.
	eff = m.OnActivityStart(base + day + 9*hour)
	if eff.Transition != TransResumeWarm || !eff.FromPrewarm {
		t.Fatalf("effects = %+v, want warm resume from prewarm", eff)
	}
}

func TestProactivePrewarmNeverUsed(t *testing.T) {
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	m.OnActivityEnd(loginAt + 8*hour)

	prewarmAt := base + day + 9*hour - 300
	eff := m.OnPrewarm(prewarmAt)
	// The prewarm waits through the predicted activity (ending at the
	// predicted 9:00 login).
	if eff.TimerAt != base+day+9*hour {
		t.Fatalf("prewarm timer at base+day+%dh, want base+day+9h (predicted end)",
			(eff.TimerAt-base-day)/hour)
	}
	// No login ever arrives; the machine re-predicts on each wake-up and
	// must eventually physically pause, flagging the wasted prewarm.
	for i := 0; i < 100; i++ {
		eff = m.OnTimer(eff.TimerAt)
		if eff.Transition == TransPhysicalPause {
			if !eff.FromPrewarm {
				t.Fatal("wasted prewarm not flagged FromPrewarm on physical pause")
			}
			return
		}
		if eff.TimerAt == 0 {
			t.Fatalf("stay-logical without a timer: %+v", eff)
		}
	}
	t.Fatalf("machine never physically paused after an unused prewarm; state %v", m.State())
}

func TestProactivePrewarmIgnoredWhenNotPhysicallyPaused(t *testing.T) {
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	// Still resumed and active.
	if eff := m.OnPrewarm(loginAt + hour); eff.Transition != TransNone {
		t.Fatalf("prewarm on a resumed database = %v, want none", eff.Transition)
	}
	m.OnActivityEnd(loginAt + 3*hour) // 12:00: logical pause (next at 15:00)
	if m.State() != LogicallyPaused {
		t.Fatalf("setup: state = %v, want logically-paused", m.State())
	}
	if eff := m.OnPrewarm(loginAt + 4*hour); eff.Transition != TransNone {
		t.Fatalf("prewarm on a logically paused database = %v, want none", eff.Transition)
	}
}

func TestReactiveIgnoresPrewarm(t *testing.T) {
	cfg := Config{Mode: Reactive, LogicalPauseSec: 7 * 3600}
	m, _ := New(cfg, 0)
	m.OnActivityEnd(10 * hour)
	m.OnTimer(17 * hour) // physically paused
	if eff := m.OnPrewarm(18 * hour); eff.Transition != TransNone {
		t.Fatalf("reactive machine accepted a prewarm: %v", eff.Transition)
	}
}

func TestProactiveSkipsRepredictionWhilePredictionOngoing(t *testing.T) {
	// Line 7: nextActivity.end >= now must skip history trim + prediction.
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	// 12:00: the stale morning prediction has passed, so this re-predicts
	// and yields {15:00, 15:00}.
	m.OnActivityEnd(loginAt + 3*hour)
	before := m.Predictions()
	// An early login at 13:00 that ends at 14:00 — before the predicted
	// 15:00 end — must NOT trigger a re-prediction.
	m.OnActivityStart(loginAt + 4*hour)
	m.OnActivityEnd(loginAt + 5*hour)
	if got := m.Predictions(); got != before {
		t.Fatalf("re-predicted during ongoing predicted activity: %d -> %d", before, got)
	}
	// A session ending after the predicted end re-predicts.
	m.OnActivityStart(loginAt + 6*hour)
	m.OnActivityEnd(loginAt + 9*hour) // 18:00 > predicted end 15:00
	if got := m.Predictions(); got != before+1 {
		t.Fatalf("prediction count = %d, want %d", got, before+1)
	}
}

func TestProactiveColdResumeAfterPhysicalPause(t *testing.T) {
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	m.OnActivityEnd(loginAt + 8*hour) // physical pause
	// Unpredicted login at 03:00: resources are reclaimed, cold resume.
	eff := m.OnActivityStart(base + day + 3*hour)
	if eff.Transition != TransResumeCold || !eff.Allocate {
		t.Fatalf("effects = %+v, want cold resume", eff)
	}
}

func TestDuplicateEventsAreNoops(t *testing.T) {
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	if eff := m.OnActivityStart(loginAt + 1); eff.Transition != TransNone {
		t.Error("second start while active not ignored")
	}
	m.OnActivityEnd(loginAt + 2*hour)
	if eff := m.OnActivityEnd(loginAt + 3*hour); eff.Transition != TransNone {
		t.Error("second end while idle not ignored")
	}
	// Timer while resumed is stale.
	m.OnActivityStart(loginAt + 4*hour)
	if eff := m.OnTimer(loginAt + 5*hour); eff.Transition != TransNone {
		t.Error("timer while resumed not ignored")
	}
}

func TestStayLogicalTimerMakesProgress(t *testing.T) {
	// Whatever the prediction, a stay-logical wake-up must be re-armed
	// strictly in the future to rule out timer livelock.
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	eff := m.OnActivityEnd(loginAt + 3*hour)
	if eff.Transition != TransLogicalPause {
		t.Fatal("setup: expected logical pause")
	}
	now := eff.TimerAt
	for i := 0; i < 10 && m.State() == LogicallyPaused; i++ {
		eff = m.OnTimer(now)
		if eff.Transition == TransStayLogical {
			if eff.TimerAt <= now {
				t.Fatalf("stay-logical re-armed timer at %d, not after %d", eff.TimerAt, now)
			}
			now = eff.TimerAt
		}
	}
}

func TestHistoryTrimmedOnPrediction(t *testing.T) {
	// Algorithm 1 line 8 runs DeleteOldHistory before predicting: after
	// months of activity the history stays within h days + lifespan marker.
	cfg := DefaultConfig()
	base := int64(1000) * day
	m, err := New(cfg, base-200*day+9*hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 200; i >= 1; i-- {
		dayStart := base - int64(i)*day
		m.OnActivityEnd(dayStart + 17*hour)
		m.OnActivityStart(dayStart + day + 9*hour)
	}
	m.OnActivityEnd(base + 17*hour)
	// 28 days x 2 events/day = 56 recent tuples, + lifespan marker + the
	// tuples of the current day; anything near 60 is fine, 400 is not.
	if n := m.History().Len(); n > 70 {
		t.Fatalf("history holds %d tuples after 200 days, want trimmed to ~60", n)
	}
	minTS, _ := m.History().MinTimestamp()
	if minTS != base-200*day+9*hour {
		t.Errorf("lifespan marker lost: min = %d", minTS)
	}
}

func TestStateStrings(t *testing.T) {
	if Resumed.String() != "resumed" ||
		LogicallyPaused.String() != "logically-paused" ||
		PhysicallyPaused.String() != "physically-paused" {
		t.Error("State.String() broken")
	}
	if Reactive.String() != "reactive" || Proactive.String() != "proactive" {
		t.Error("Mode.String() broken")
	}
	for tr := TransNone; tr <= TransStayLogical; tr++ {
		if tr.String() == "" {
			t.Errorf("Transition(%d).String() empty", int(tr))
		}
	}
	if State(99).String() == "" || Mode(99).String() == "" || Transition(99).String() == "" {
		t.Error("unknown enum values print empty")
	}
}

// TestEffectsRecords pins the one Effects → record translation for every
// Transition × FromPrewarm pair: the kinds, in the order the simulator
// emits them after the activity record that triggered the decision.
func TestEffectsRecords(t *testing.T) {
	var (
		warm    = telemetry.ResumeWarm
		cold    = telemetry.ResumeCold
		logical = telemetry.LogicalPause
		phys    = telemetry.PhysicalPause
		prewarm = telemetry.Prewarm
		used    = telemetry.PrewarmUsed
		wasted  = telemetry.PrewarmWasted
	)
	cases := []struct {
		tr          Transition
		fromPrewarm bool
		want        []telemetry.Kind
	}{
		{TransNone, false, nil},
		{TransNone, true, nil},
		{TransResumeWarm, false, []telemetry.Kind{warm}},
		{TransResumeWarm, true, []telemetry.Kind{warm, used}},
		{TransResumeCold, false, []telemetry.Kind{cold}},
		{TransResumeCold, true, []telemetry.Kind{cold}},
		{TransLogicalPause, false, []telemetry.Kind{logical}},
		{TransLogicalPause, true, []telemetry.Kind{logical}},
		{TransPhysicalPause, false, []telemetry.Kind{phys}},
		{TransPhysicalPause, true, []telemetry.Kind{phys, wasted}},
		{TransPrewarm, false, []telemetry.Kind{prewarm}},
		{TransPrewarm, true, []telemetry.Kind{prewarm}},
		{TransStayLogical, false, nil},
		{TransStayLogical, true, nil},
	}
	seen := map[Transition]int{}
	for _, c := range cases {
		seen[c.tr]++
		recs := Effects{Transition: c.tr, FromPrewarm: c.fromPrewarm}.Records()
		if got := recs.Kinds(); !slices.Equal(got, c.want) {
			t.Errorf("%v fromPrewarm=%v: records %v, want %v", c.tr, c.fromPrewarm, got, c.want)
		}
	}
	for tr := TransNone; tr <= TransStayLogical; tr++ {
		if seen[tr] != 2 {
			t.Errorf("%v covered %d times, want 2", tr, seen[tr])
		}
	}
	eff := Effects{Transition: TransPhysicalPause, FromPrewarm: true}
	if n := testing.AllocsPerRun(100, func() {
		recs := eff.Records()
		for range recs.Kinds() {
		}
	}); n != 0 {
		t.Errorf("Records allocates %v times per call", n)
	}
}
