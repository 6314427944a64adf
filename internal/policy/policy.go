// Package policy implements the proactive resume-and-pause lifecycle of a
// serverless database: Algorithm 1 and the finite state automaton of
// Figure 4 in the ProRP paper.
//
// The paper writes Algorithm 1 as blocking loops (`while active`,
// `Sleep()`); at simulation scale the same logic is expressed here as an
// event-driven state machine. Each input event (customer activity start or
// end, a timer expiry, a control-plane pre-warm) advances the machine and
// returns the Effects the environment must apply: allocate or reclaim
// resources, (re)schedule the single wake-up timer, or write the predicted
// next start into the control-plane metadata store. The transition guards
// are kept literally identical to Algorithm 1's lines 7-12, 19, and 26-29;
// the unit tests pin each guard.
//
// The same machine also implements the current production *reactive*
// policy (Section 2.2) — logical pause on idle, physical pause after l idle
// seconds, no prediction — selected by Mode, so the paper's baseline
// comparison is apples-to-apples.
package policy

import (
	"fmt"

	"prorp/internal/historystore"
	"prorp/internal/predictor"
	"prorp/internal/telemetry"
)

// State is a node of the Figure 4 automaton.
type State int

const (
	// Resumed: resources allocated, customer workload running, billed.
	Resumed State = iota
	// LogicallyPaused: resources allocated but idle; customer not billed.
	LogicallyPaused
	// PhysicallyPaused: resources reclaimed.
	PhysicallyPaused
)

func (s State) String() string {
	switch s {
	case Resumed:
		return "resumed"
	case LogicallyPaused:
		return "logically-paused"
	case PhysicallyPaused:
		return "physically-paused"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Mode selects the resource allocation policy.
type Mode int

const (
	// Reactive is the production baseline of Section 2.2: always logical
	// pause on idle, physical pause after l seconds of idleness, resume
	// only on customer login.
	Reactive Mode = iota
	// Proactive is ProRP: prediction-driven physical pauses (Transition 3
	// of Figure 4) and control-plane pre-warms ahead of predicted logins.
	Proactive
)

func (m Mode) String() string {
	switch m {
	case Reactive:
		return "reactive"
	case Proactive:
		return "proactive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Transition classifies what an event did, for telemetry and KPI metrics.
type Transition int

const (
	// TransNone: the event changed nothing observable.
	TransNone Transition = iota
	// TransResumeWarm: first login after idle landed while resources were
	// available (logical pause or pre-warm) — a QoS success.
	TransResumeWarm
	// TransResumeCold: first login landed while physically paused; a
	// reactive resume workflow with visible delay — a QoS miss.
	TransResumeCold
	// TransLogicalPause: entered logical pause from Resumed.
	TransLogicalPause
	// TransPhysicalPause: resources reclaimed.
	TransPhysicalPause
	// TransPrewarm: control plane proactively resumed a physically paused
	// database ahead of predicted activity (Algorithm 5).
	TransPrewarm
	// TransStayLogical: the wake-up timer fired, the database re-predicted
	// and decided to remain logically paused.
	TransStayLogical
)

func (t Transition) String() string {
	switch t {
	case TransNone:
		return "none"
	case TransResumeWarm:
		return "resume-warm"
	case TransResumeCold:
		return "resume-cold"
	case TransLogicalPause:
		return "logical-pause"
	case TransPhysicalPause:
		return "physical-pause"
	case TransPrewarm:
		return "prewarm"
	case TransStayLogical:
		return "stay-logical"
	default:
		return fmt.Sprintf("Transition(%d)", int(t))
	}
}

// Config are the policy knobs (Table 1 of the paper).
type Config struct {
	// Mode selects reactive or proactive behaviour.
	Mode Mode
	// LogicalPauseSec is l: how long resources stay logically paused
	// before reclamation is considered. Default 7 hours.
	LogicalPauseSec int64
	// Predictor holds h, p, c, w, s and the seasonality.
	Predictor predictor.Params
}

// DefaultConfig returns the paper's production defaults.
func DefaultConfig() Config {
	return Config{
		Mode:            Proactive,
		LogicalPauseSec: 7 * 3600,
		Predictor:       predictor.Default(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Mode != Reactive && c.Mode != Proactive {
		return fmt.Errorf("policy: unknown mode %d", int(c.Mode))
	}
	if c.LogicalPauseSec <= 0 {
		return fmt.Errorf("policy: logical pause %d s, want > 0", c.LogicalPauseSec)
	}
	if c.Mode == Proactive {
		return c.Predictor.Validate()
	}
	return nil
}

// Effects is what the environment must do after an event. TimerAt is the
// complete desired timer state: > 0 means exactly one pending wake-up at
// that time, 0 means none; the caller reconciles (cancels any previous
// timer). That holds for TransNone too, which carries the pending timer
// unchanged: a duplicate or stale event cancels nothing.
type Effects struct {
	// Allocate requests that resources be (re)allocated.
	Allocate bool
	// Reclaim requests that resources be reclaimed (physical pause).
	Reclaim bool
	// TimerAt is the desired wake-up time, 0 for no timer.
	TimerAt int64
	// MetadataSet requests writing MetadataStart as the predicted next
	// activity start into the control-plane store (Algorithm 1 line 31).
	MetadataSet   bool
	MetadataStart int64
	// Transition classifies the event for telemetry.
	Transition Transition
	// FromPrewarm is set on TransResumeWarm and TransPhysicalPause when the
	// preceding logical pause was entered via a control-plane pre-warm; it
	// classifies the proactive resume as correct (used) or wrong (wasted).
	FromPrewarm bool
}

// Records are the telemetry records one Effects stands for, in the order
// they are emitted. There are at most two, held in place, so translating
// allocates nothing.
type Records struct {
	kinds [2]telemetry.Kind
	n     int
}

// Kinds lists the record kinds in emission order.
func (r *Records) Kinds() []telemetry.Kind { return r.kinds[:r.n] }

// Records translates the effects into the transition records of §8: the
// one place a Transition becomes telemetry, read by the simulator's log and
// KPI fold and by the serving tier's counters alike. A resume or physical
// pause that ends a pre-warm adds its outcome, used or wasted, after it.
func (e Effects) Records() Records {
	switch e.Transition {
	case TransResumeWarm:
		if e.FromPrewarm {
			return Records{[2]telemetry.Kind{telemetry.ResumeWarm, telemetry.PrewarmUsed}, 2}
		}
		return Records{[2]telemetry.Kind{telemetry.ResumeWarm}, 1}
	case TransResumeCold:
		return Records{[2]telemetry.Kind{telemetry.ResumeCold}, 1}
	case TransLogicalPause:
		return Records{[2]telemetry.Kind{telemetry.LogicalPause}, 1}
	case TransPhysicalPause:
		if e.FromPrewarm {
			return Records{[2]telemetry.Kind{telemetry.PhysicalPause, telemetry.PrewarmWasted}, 2}
		}
		return Records{[2]telemetry.Kind{telemetry.PhysicalPause}, 1}
	case TransPrewarm:
		return Records{[2]telemetry.Kind{telemetry.Prewarm}, 1}
	}
	return Records{} // TransNone and TransStayLogical change nothing §8 counts
}

// Machine is the per-database lifecycle controller. It owns the database's
// history store, mirroring the paper's design where history lives inside
// the database itself. Not safe for concurrent use.
type Machine struct {
	cfg  Config
	hist *historystore.Store

	state  State
	active bool

	old        bool
	next       predictor.Activity
	pauseStart int64
	prewarmed  bool
	// timer is the wake-up the last effects left pending (0 for none).
	timer int64

	// predictions counts Predict invocations, for overhead accounting.
	predictions int
}

// New returns a machine for a freshly created database. A new database
// starts Resumed and active at birth (its creation is its first activity);
// call OnActivityEnd when the initial activity stops.
func New(cfg Config, birth int64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, hist: historystore.New(), state: Resumed, active: true}
	m.insertHistory(birth, historystore.EventStart)
	return m, nil
}

// State returns the current lifecycle state.
func (m *Machine) State() State { return m.state }

// Active reports whether a customer workload is currently running.
func (m *Machine) Active() bool { return m.active }

// History exposes the database's history store (read-mostly; the
// experiment harness measures its size for Figure 10).
func (m *Machine) History() *historystore.Store { return m.hist }

// NextActivity returns the current prediction (zero when none).
func (m *Machine) NextActivity() predictor.Activity { return m.next }

// Old reports whether the database has accumulated at least h days of
// lifespan (the "old" flag of Algorithm 3).
func (m *Machine) Old() bool { return m.old }

// Predictions reports how many times Algorithm 4 ran on this database.
func (m *Machine) Predictions() int { return m.predictions }

// ResourcesAvailable reports whether compute is allocated right now.
func (m *Machine) ResourcesAvailable() bool { return m.state != PhysicallyPaused }

func (m *Machine) insertHistory(t int64, typ byte) {
	// The reactive baseline does not maintain prediction history; skipping
	// the inserts keeps its overhead faithful to production (Section 2.2).
	if m.cfg.Mode == Proactive {
		m.hist.Insert(t, typ)
	}
}

// predict runs Algorithm 1 lines 8-9: trim old history, then run
// Algorithm 4.
func (m *Machine) predict(now int64) {
	old, _ := m.hist.DeleteOld(m.cfg.Predictor.HistoryDays, now)
	m.old = old
	m.next, _ = predictor.Predict(m.hist, m.cfg.Predictor, now)
	m.predictions++
}

// Timer reports the wake-up the machine has pending, 0 for none.
func (m *Machine) Timer() int64 { return m.timer }

// settle keeps the pending timer: an effect that changes something sets
// it, and TransNone reports it unchanged.
func (m *Machine) settle(eff *Effects) {
	if eff.Transition == TransNone {
		eff.TimerAt = m.timer
	} else {
		m.timer = eff.TimerAt
	}
}

// OnActivityStart handles a customer login at time now.
func (m *Machine) OnActivityStart(now int64) (eff Effects) {
	defer m.settle(&eff)
	if m.active {
		return Effects{Transition: TransNone}
	}
	m.active = true
	m.insertHistory(now, historystore.EventStart)

	switch m.state {
	case PhysicallyPaused:
		// Reactive resume: the demand signal arrives while resources are
		// reclaimed; the customer experiences the allocation delay.
		m.state = Resumed
		m.prewarmed = false
		return Effects{Allocate: true, Transition: TransResumeCold}
	case LogicallyPaused:
		// Algorithm 1 lines 21-23 + 28: pauseEnd = now, resume.
		m.state = Resumed
		fromPrewarm := m.prewarmed
		m.prewarmed = false
		return Effects{Transition: TransResumeWarm, FromPrewarm: fromPrewarm, TimerAt: 0}
	default: // Resumed but idle (activity restarted before any pause ran)
		return Effects{Transition: TransResumeWarm}
	}
}

// OnActivityEnd handles the end of customer activity: Algorithm 1 lines
// 6-12.
func (m *Machine) OnActivityEnd(now int64) (eff Effects) {
	defer m.settle(&eff)
	if !m.active {
		return Effects{Transition: TransNone}
	}
	m.active = false
	m.insertHistory(now, historystore.EventEnd)

	if m.cfg.Mode == Reactive {
		// The baseline always logically pauses and reconsiders after l.
		m.state = LogicallyPaused
		m.pauseStart = now
		m.prewarmed = false
		return Effects{
			TimerAt:    now + m.cfg.LogicalPauseSec,
			Transition: TransLogicalPause,
		}
	}

	// Line 7: skip re-prediction while the previously predicted activity
	// is still ongoing.
	if m.next.End < now {
		m.predict(now)
	}

	// Line 10: physical pause when no activity is expected within l, or
	// when an old database has no prediction at all.
	if now+m.cfg.LogicalPauseSec <= m.next.Start || (m.old && m.next.IsZero()) {
		return m.physicalPause()
	}
	return m.logicalPause(now, false)
}

// logicalPause enters the LogicallyPaused state (Algorithm 1 lines 13-20)
// and schedules the wake-up at the time the line-19 wait condition expires.
func (m *Machine) logicalPause(now int64, prewarm bool) Effects {
	m.state = LogicallyPaused
	m.pauseStart = now
	m.prewarmed = prewarm

	eff := Effects{
		TimerAt:    m.wakeTime(now),
		Transition: TransLogicalPause,
	}
	if prewarm {
		// Entering via Algorithm 5: resources must be re-allocated.
		eff.Allocate = true
		eff.Transition = TransPrewarm
	}
	return eff
}

// waitHolds is the literal line-19 condition: the machine stays logically
// paused while it is true.
func (m *Machine) waitHolds(now int64) bool {
	if m.cfg.Mode == Reactive {
		return now < m.pauseStart+m.cfg.LogicalPauseSec
	}
	l := m.cfg.LogicalPauseSec
	return (!m.old && now < m.pauseStart+l) ||
		now < m.next.End ||
		(now < m.next.Start && m.next.Start < now+l)
}

// wakeTime computes the earliest t >= now at which waitHolds(t) is false.
// The line-19 disjuncts each expire monotonically: the new-database guard
// at pauseStart+l, the ongoing-prediction guard at next.End, and the
// imminent-start guard at next.Start (which is always <= next.End). The
// expiry is therefore the max over the currently-true disjuncts.
func (m *Machine) wakeTime(now int64) int64 {
	wake := now
	if m.cfg.Mode == Reactive {
		return m.pauseStart + m.cfg.LogicalPauseSec
	}
	if !m.old && m.pauseStart+m.cfg.LogicalPauseSec > wake {
		wake = m.pauseStart + m.cfg.LogicalPauseSec
	}
	if m.next.End > wake {
		wake = m.next.End
	}
	return wake
}

// OnTimer handles the wake-up scheduled by logicalPause: Algorithm 1 lines
// 24-29 (plus the baseline's pause-expiry check).
func (m *Machine) OnTimer(now int64) (eff Effects) {
	defer m.settle(&eff)
	if m.state != LogicallyPaused || m.active {
		return Effects{Transition: TransNone}
	}

	if m.cfg.Mode == Reactive {
		if now >= m.pauseStart+m.cfg.LogicalPauseSec {
			return m.physicalPause()
		}
		return Effects{TimerAt: m.pauseStart + m.cfg.LogicalPauseSec, Transition: TransStayLogical}
	}

	if m.waitHolds(now) {
		// Spurious early wake: keep waiting.
		return Effects{TimerAt: m.wakeTime(now), Transition: TransStayLogical}
	}

	// Lines 24-25: trim history, re-predict.
	m.predict(now)

	// Line 26. The paper writes `pauseStart+l < now` (strict); we use <= so
	// a timer firing exactly at pauseStart+l makes progress — with the
	// strict form the pseudocode livelocks for a new database whose
	// re-prediction returns nothing.
	l := m.cfg.LogicalPauseSec
	if (!m.old && m.pauseStart+l <= now) ||
		now+l <= m.next.Start ||
		(m.old && m.next.IsZero()) {
		return m.physicalPause()
	}
	// Otherwise remain logically paused under the refreshed prediction.
	// The wake-up is pushed at least one slide interval ahead: a degenerate
	// prediction (end <= now) would otherwise re-arm the timer at `now`
	// forever, and predictions cannot change at a finer grain than the
	// window slide anyway.
	wake := m.wakeTime(now)
	if min := now + m.cfg.Predictor.SlideSec; wake < min {
		wake = min
	}
	return Effects{TimerAt: wake, Transition: TransStayLogical}
}

// physicalPause implements Algorithm 1 lines 30-32: persist the predicted
// start in the metadata store and reclaim resources.
func (m *Machine) physicalPause() Effects {
	fromPrewarm := m.prewarmed
	m.prewarmed = false
	m.state = PhysicallyPaused
	eff := Effects{
		Reclaim:     true,
		TimerAt:     0,
		Transition:  TransPhysicalPause,
		FromPrewarm: fromPrewarm,
	}
	if m.cfg.Mode == Proactive {
		eff.MetadataSet = true
		eff.MetadataStart = m.next.Start
	}
	return eff
}

// OnPrewarm handles Algorithm 5's proactive resume: the control plane
// moves a physically paused database into logical pause ahead of its
// predicted activity. Stale pre-warms (the database already resumed or was
// never paused) are ignored — the diagnostics runner drains such entries.
func (m *Machine) OnPrewarm(now int64) (eff Effects) {
	defer m.settle(&eff)
	if m.state != PhysicallyPaused || m.cfg.Mode != Proactive {
		return Effects{Transition: TransNone}
	}
	return m.logicalPause(now, true)
}
