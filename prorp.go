// Package prorp is a Go implementation of ProRP — Proactive Resume and
// Pause of resources for serverless databases — after Poppe et al.,
// "Proactive Resume and Pause of Resources for Microsoft Azure SQL
// Database Serverless", SIGMOD-Companion 2024.
//
// A serverless database keeps compute allocated only while customers use
// it. The reactive policy reclaims resources after a fixed idle timeout
// and re-allocates on the next login, which delays that login. ProRP
// instead tracks each database's activity history, detects daily or weekly
// login patterns with a probabilistic sliding-window detector, reclaims
// resources as soon as no activity is predicted, and pre-warms them just
// ahead of the predicted next login.
//
// Two entry points:
//
//   - Database embeds the per-database lifecycle controller (Algorithm 1
//     of the paper) and ShardedFleet the region control plane over many of
//     them (Algorithm 5) into an application: feed Login/Idle/Wake events
//     with real timestamps and apply the returned Decisions.
//   - Simulate replays a synthetic region workload through the full stack
//     and reports the paper's KPI metrics; the examples and the benchmark
//     harness build on it.
package prorp

import (
	"time"

	"prorp/internal/controlplane"
	"prorp/internal/policy"
	"prorp/internal/predictor"
)

// Mode selects the resource allocation policy.
type Mode int

const (
	// Reactive is the baseline: logical pause on idle, physical pause
	// after the timeout, resume only on login.
	Reactive Mode = Mode(policy.Reactive)
	// Proactive is ProRP: prediction-driven pauses and pre-warms.
	Proactive Mode = Mode(policy.Proactive)
)

func (m Mode) String() string { return policy.Mode(m).String() }

// Seasonality selects the repetition period the activity detector assumes.
type Seasonality int

const (
	// Daily detects patterns repeating every 24 hours.
	Daily Seasonality = Seasonality(predictor.Daily)
	// Weekly detects patterns repeating every 7 days.
	Weekly Seasonality = Seasonality(predictor.Weekly)
)

func (s Seasonality) String() string { return predictor.Seasonality(s).String() }

// State is the lifecycle state of a database (Figure 4 of the paper).
type State int

const (
	// Resumed: resources allocated, workload running, billed.
	Resumed State = State(policy.Resumed)
	// LogicallyPaused: resources allocated but idle, not billed.
	LogicallyPaused State = State(policy.LogicallyPaused)
	// PhysicallyPaused: resources reclaimed.
	PhysicallyPaused State = State(policy.PhysicallyPaused)
)

func (s State) String() string { return policy.State(s).String() }

// Options are the tunable knobs of Table 1 of the paper, expressed in
// time.Duration for API ergonomics. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// Mode selects reactive or proactive behaviour.
	Mode Mode
	// LogicalPause is l: how long resources stay allocated after activity
	// stops before reclamation is considered. Default 7 h.
	LogicalPause time.Duration
	// History is h: how much per-database history the detector keeps.
	// Default 28 days. Rounded down to whole days.
	History time.Duration
	// Horizon is p: how far ahead activity is predicted. Default 24 h.
	// Rounded down to whole hours.
	Horizon time.Duration
	// Confidence is c: the minimum fraction of past days (or weeks) with
	// activity in a window for a prediction. Default 0.1.
	Confidence float64
	// Window is w: the sliding window width. Default 7 h.
	Window time.Duration
	// Slide is s: the window slide. Default 5 min.
	Slide time.Duration
	// Seasonality selects daily or weekly detection. Default daily.
	Seasonality Seasonality
	// PrewarmLead is k: how far ahead of the predicted login resources are
	// resumed. Default 5 min.
	PrewarmLead time.Duration
	// ResumeOpPeriod is the cadence of the fleet's proactive resume
	// operation. Default 1 min.
	ResumeOpPeriod time.Duration
	// MaxPrewarmsPerOp caps pre-warms per operation iteration (0 =
	// unlimited). Default 100.
	MaxPrewarmsPerOp int
}

// DefaultOptions returns the production defaults of Table 1.
func DefaultOptions() Options {
	return Options{
		Mode:             Proactive,
		LogicalPause:     7 * time.Hour,
		History:          28 * 24 * time.Hour,
		Horizon:          24 * time.Hour,
		Confidence:       0.1,
		Window:           7 * time.Hour,
		Slide:            5 * time.Minute,
		Seasonality:      Daily,
		PrewarmLead:      5 * time.Minute,
		ResumeOpPeriod:   time.Minute,
		MaxPrewarmsPerOp: 100,
	}
}

// policyConfig converts Options to the internal policy configuration.
func (o Options) policyConfig() policy.Config {
	return policy.Config{
		Mode:            policy.Mode(o.Mode),
		LogicalPauseSec: int64(o.LogicalPause / time.Second),
		Predictor: predictor.Params{
			HistoryDays:  int(o.History / (24 * time.Hour)),
			HorizonHours: int(o.Horizon / time.Hour),
			Confidence:   o.Confidence,
			WindowSec:    int64(o.Window / time.Second),
			SlideSec:     int64(o.Slide / time.Second),
			Seasonality:  predictor.Seasonality(o.Seasonality),
		},
	}
}

// controlPlaneConfig converts the fleet-level knobs.
func (o Options) controlPlaneConfig() controlplane.Config {
	return controlplane.Config{
		OpPeriodSec:      int64(o.ResumeOpPeriod / time.Second),
		PrewarmLeadSec:   int64(o.PrewarmLead / time.Second),
		MaxPrewarmsPerOp: o.MaxPrewarmsPerOp,
	}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if err := o.policyConfig().Validate(); err != nil {
		return err
	}
	if o.Mode == Proactive {
		if err := o.controlPlaneConfig().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Event classifies what a Decision did, for logging and metrics.
type Event int

const (
	// EventNone: nothing observable changed.
	EventNone Event = Event(policy.TransNone)
	// EventResumeWarm: a first login after idle found resources available.
	EventResumeWarm Event = Event(policy.TransResumeWarm)
	// EventResumeCold: a first login found resources reclaimed and had to
	// wait for a reactive resume.
	EventResumeCold Event = Event(policy.TransResumeCold)
	// EventLogicalPause: the database entered logical pause.
	EventLogicalPause Event = Event(policy.TransLogicalPause)
	// EventPhysicalPause: resources were reclaimed.
	EventPhysicalPause Event = Event(policy.TransPhysicalPause)
	// EventPrewarm: the control plane proactively resumed the database.
	EventPrewarm Event = Event(policy.TransPrewarm)
	// EventStayLogical: a wake-up re-evaluated and kept the logical pause.
	EventStayLogical Event = Event(policy.TransStayLogical)
)

func (e Event) String() string { return policy.Transition(e).String() }

// Decision tells the embedding system what to do after an event.
type Decision struct {
	// Event classifies the transition.
	Event Event
	// Allocate asks the caller to run a resource allocation workflow.
	Allocate bool
	// Reclaim asks the caller to run a resource reclamation workflow.
	Reclaim bool
	// WakeAt is when Wake must next be called; zero means no wake-up is
	// needed (any previously requested wake-up is obsolete).
	WakeAt time.Time
	// FromPrewarm marks resume/pause outcomes of a pre-warm, classifying
	// it as used (on a warm resume) or wasted (on a physical pause).
	FromPrewarm bool
}

func decisionFrom(eff policy.Effects) Decision {
	d := Decision{
		Event:       Event(eff.Transition),
		Allocate:    eff.Allocate,
		Reclaim:     eff.Reclaim,
		FromPrewarm: eff.FromPrewarm,
	}
	if eff.TimerAt > 0 {
		d.WakeAt = time.Unix(eff.TimerAt, 0).UTC()
	}
	return d
}

// Database is the per-database lifecycle controller: Algorithm 1 of the
// paper plus the history store and predictor it drives. Not safe for
// concurrent use.
type Database struct {
	id      int
	machine *policy.Machine
	opts    Options
}

// NewDatabase creates the controller for a database created (and first
// active) at createdAt.
func NewDatabase(opts Options, id int, createdAt time.Time) (*Database, error) {
	m, err := policy.New(opts.policyConfig(), createdAt.Unix())
	if err != nil {
		return nil, err
	}
	return &Database{id: id, machine: m, opts: opts}, nil
}

// ID returns the database identifier.
func (d *Database) ID() int { return d.id }

// State returns the current lifecycle state.
func (d *Database) State() State { return State(d.machine.State()) }

// Active reports whether a customer workload is currently running.
func (d *Database) Active() bool { return d.machine.Active() }

// ResourcesAvailable reports whether compute is currently allocated.
func (d *Database) ResourcesAvailable() bool { return d.machine.ResourcesAvailable() }

// HistoryTuples reports the number of tuples in the activity history.
func (d *Database) HistoryTuples() int { return d.machine.History().Len() }

// HistoryBytes reports the storage footprint of the activity history.
func (d *Database) HistoryBytes() int { return d.machine.History().SizeBytes() }

// NextPredictedActivity returns the current prediction, if any. The
// prediction is refreshed on activity ends and logical-pause wake-ups; for
// a database that has sat physically paused since it was made, it can lie
// in the past — the policy's guards always compare it against the current
// time, and callers should too.
func (d *Database) NextPredictedActivity() (start, end time.Time, ok bool) {
	next := d.machine.NextActivity()
	if next.IsZero() {
		return time.Time{}, time.Time{}, false
	}
	return time.Unix(next.Start, 0).UTC(), time.Unix(next.End, 0).UTC(), true
}

// PredictionWindow is one candidate window of a prediction scan, for
// observability ("why did this database (not) get a prediction?").
type PredictionWindow struct {
	// Start is the window's start time.
	Start time.Time
	// Probability is the fraction of past days (or weeks) with a login in
	// this window.
	Probability float64
	// Qualifies reports whether the probability clears the confidence
	// threshold.
	Qualifies bool
	// Selected marks the window the prediction came from.
	Selected bool
}

// ExplainPrediction scans every candidate window as of now and returns
// per-window statistics plus the prediction the scan yields (ok reports
// whether any window qualified). Unlike the policy's own prediction it
// scans the full horizon, in one read of the look-back logins.
func (d *Database) ExplainPrediction(now time.Time) (windows []PredictionWindow, start, end time.Time, ok bool) {
	return predictionAt(d.machine, d.opts.policyConfig().Predictor, now, true)
}

// predictionAt is the prediction Algorithm 4 makes over one machine's
// history as of now, shared by the facades: with withWindows the full scan
// and its per-window statistics (the windows slice is its only allocation),
// without it a plain Predict and nil windows.
func predictionAt(m *policy.Machine, p predictor.Params, now time.Time, withWindows bool) (windows []PredictionWindow, start, end time.Time, ok bool) {
	var pred predictor.Activity
	if withWindows {
		windows = make([]PredictionWindow, 0, p.WindowCount())
		pred, ok = predictor.ExplainEach(m.History(), p, now.Unix(), func(s predictor.WindowStat) {
			windows = append(windows, PredictionWindow{
				Start:       time.Unix(s.WinStart, 0).UTC(),
				Probability: s.Probability,
				Qualifies:   s.Qualifies,
				Selected:    s.Selected,
			})
		})
	} else {
		pred, ok = predictor.Predict(m.History(), p, now.Unix())
	}
	if !ok {
		return windows, time.Time{}, time.Time{}, false
	}
	return windows, time.Unix(pred.Start, 0).UTC(), time.Unix(pred.End, 0).UTC(), true
}

// Login records the start of customer activity at t.
func (d *Database) Login(t time.Time) Decision {
	return decisionFrom(d.machine.OnActivityStart(t.Unix()))
}

// Idle records the end of customer activity at t.
func (d *Database) Idle(t time.Time) Decision {
	return decisionFrom(d.machine.OnActivityEnd(t.Unix()))
}

// Wake must be called at the WakeAt time of the previous Decision.
func (d *Database) Wake(t time.Time) Decision {
	return decisionFrom(d.machine.OnTimer(t.Unix()))
}

// Prewarmed pairs a pre-warmed database with its Decision.
type Prewarmed struct {
	ID       int
	Decision Decision
}
