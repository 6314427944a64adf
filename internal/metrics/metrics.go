// Package metrics computes the KPI metrics of Section 8 of the ProRP paper:
//
//   - Quality of service (QoS): the percentage of first logins after an
//     idle interval that occur while resources are available (warm) versus
//     unavailable (cold, triggering a reactive resume).
//   - Operational costs (COGS): the percentage of database-time during
//     which resources are allocated but idle, decomposed into logical-pause
//     idle, correct-proactive-resume idle (resumed ahead of a login that
//     did arrive), and wrong-proactive-resume idle (resumed for a login
//     that never came).
//   - Overhead: counters for the allocation/reclamation workflows.
//
// Every database keeps an Account; Collector.Observe folds each telemetry
// record into it, counting the record and closing or opening the §8 time
// segments, clipped to the evaluation window. The online engine and the
// offline replay run the same fold, so their reports agree by construction.
package metrics

import (
	"fmt"
	"strings"

	"prorp/internal/telemetry"
)

// Category classifies how a database spent a span of time, the exhaustive
// split implied by Definition 2.2 of the paper plus the pre-warm
// refinements of Section 8.
type Category int

const (
	// Used: resources allocated and customer workload running (D=A=1).
	Used Category = iota
	// IdleLogical: logically paused after activity — allocated, unbilled,
	// idle.
	IdleLogical
	// IdlePrewarmCorrect: proactively resumed ahead of a login that did
	// arrive; idle until the customer logged in.
	IdlePrewarmCorrect
	// IdlePrewarmWrong: proactively resumed but the customer never came;
	// idle until resources were reclaimed again.
	IdlePrewarmWrong
	// Saved: physically paused with no demand (D=A=0) — the win.
	Saved
	// Unavailable: demand present but resources not yet allocated (D=1,
	// A=0): the visible delay of a reactive resume.
	Unavailable
	numCategories
)

func (c Category) String() string {
	switch c {
	case Used:
		return "used"
	case IdleLogical:
		return "idle-logical"
	case IdlePrewarmCorrect:
		return "idle-prewarm-correct"
	case IdlePrewarmWrong:
		return "idle-prewarm-wrong"
	case Saved:
		return "saved"
	case Unavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Collector accumulates KPI inputs over an evaluation window. Segments and
// events outside [EvalFrom, EvalTo) are clipped or dropped, so a simulation
// can warm up (building history) before measurement starts.
type Collector struct {
	evalFrom, evalTo int64

	durations [numCategories]int64
	// counts are the records observed inside the window, by kind.
	counts [telemetry.NumKinds]int
}

// NewCollector returns a collector measuring [evalFrom, evalTo).
func NewCollector(evalFrom, evalTo int64) (*Collector, error) {
	if evalTo <= evalFrom {
		return nil, fmt.Errorf("metrics: evaluation window [%d,%d) empty", evalFrom, evalTo)
	}
	return &Collector{evalFrom: evalFrom, evalTo: evalTo}, nil
}

// AddSegment accounts [from, to) of one database's time to the category,
// clipped to the evaluation window.
func (c *Collector) AddSegment(cat Category, from, to int64) {
	if cat < 0 || cat >= numCategories {
		panic(fmt.Sprintf("metrics: unknown category %d", int(cat)))
	}
	if from < c.evalFrom {
		from = c.evalFrom
	}
	if to > c.evalTo {
		to = c.evalTo
	}
	if to > from {
		c.durations[cat] += to - from
	}
}

// Account is one database's open §8 segment: the time since which it is
// unaccounted, its category, and whether it is a pre-warm whose outcome is
// not yet known. It is a value; its owner keeps it beside the database.
type Account struct {
	since   int64
	cat     Category
	prewarm bool
}

// NewAccount opens the account of a database born at birth: a new database
// is active, so its first segment is Used.
func NewAccount(birth int64) Account { return Account{since: birth, cat: Used} }

// Observe folds one of a database's telemetry records into the collector:
// it counts the record if it falls inside the window, and a transition
// record closes the open segment and opens the next. This one fold is the
// §8 accounting of both the online engine and the offline replay.
func (c *Collector) Observe(a *Account, r telemetry.Record) {
	if r.Time >= c.evalFrom && r.Time < c.evalTo {
		c.counts[r.Kind]++
	}
	var next Category
	switch r.Kind {
	case telemetry.ActivityEnd:
		// Used until here; the pause decision that follows opens the next
		// segment.
		c.Close(a, r.Time)
		return
	case telemetry.ResumeWarm, telemetry.ResumeCold:
		next = Used
	case telemetry.LogicalPause, telemetry.Prewarm:
		next = IdleLogical
	case telemetry.PhysicalPause:
		next = Saved
		if a.prewarm {
			// Paused again untouched: a wrong proactive resume.
			a.cat, a.prewarm = IdlePrewarmWrong, false
		}
	default:
		// Activity starts are accounted through their resume; workflow
		// records and outcomes carry no duration.
		return
	}
	c.Close(a, r.Time)
	a.cat, a.prewarm = next, r.Kind == telemetry.Prewarm
}

// Close accounts a's open segment up to t. A pre-warm still undecided —
// the login it waits for came, or the horizon did — counts as correct.
func (c *Collector) Close(a *Account, t int64) {
	cat := a.cat
	if a.prewarm {
		cat = IdlePrewarmCorrect
	}
	if t > a.since {
		c.AddSegment(cat, a.since, t)
		a.since = t
	}
}

// Wait accounts [from, to) as Unavailable: a reactive resume's customer
// waiting on the allocation workflow. It is the one segment no record
// carries, so only the online engine can call it (see ReplayTelemetry).
func (c *Collector) Wait(a *Account, from, to int64) {
	if to > from {
		c.AddSegment(Unavailable, from, to)
		a.since = to
	}
}

// Report finalizes the KPI metrics.
func (c *Collector) Report() Report {
	return Report{
		EvalFrom:       c.evalFrom,
		EvalTo:         c.evalTo,
		Durations:      c.durations,
		WarmLogins:     c.counts[telemetry.ResumeWarm],
		ColdLogins:     c.counts[telemetry.ResumeCold],
		Prewarms:       c.counts[telemetry.Prewarm],
		PrewarmsUsed:   c.counts[telemetry.PrewarmUsed],
		PrewarmsWasted: c.counts[telemetry.PrewarmWasted],
		LogicalPauses:  c.counts[telemetry.LogicalPause],
		PhysicalPauses: c.counts[telemetry.PhysicalPause],
	}
}

// Report is the evaluated KPI set for one simulation run.
type Report struct {
	Name     string // policy / region label, set by the caller
	EvalFrom int64
	EvalTo   int64

	Durations [numCategories]int64

	WarmLogins     int
	ColdLogins     int
	Prewarms       int
	PrewarmsUsed   int
	PrewarmsWasted int
	LogicalPauses  int
	PhysicalPauses int
}

// TotalTime is the accounted database-time in seconds.
func (r Report) TotalTime() int64 {
	var sum int64
	for _, d := range r.Durations {
		sum += d
	}
	return sum
}

// QoSPercent is the paper's headline QoS metric: the percentage of first
// logins after idle that landed on available resources.
func (r Report) QoSPercent() float64 {
	total := r.WarmLogins + r.ColdLogins
	if total == 0 {
		return 0
	}
	return 100 * float64(r.WarmLogins) / float64(total)
}

// pct returns the share of total accounted time spent in the categories.
func (r Report) pct(cats ...Category) float64 {
	total := r.TotalTime()
	if total == 0 {
		return 0
	}
	var sum int64
	for _, c := range cats {
		sum += r.Durations[c]
	}
	return 100 * float64(sum) / float64(total)
}

// IdlePercent is the COGS metric: the percentage of time resources were
// allocated but idle (logical pauses plus both kinds of pre-warm idle).
func (r Report) IdlePercent() float64 {
	return r.pct(IdleLogical, IdlePrewarmCorrect, IdlePrewarmWrong)
}

// IdleLogicalPercent is the logical-pause share of time.
func (r Report) IdleLogicalPercent() float64 { return r.pct(IdleLogical) }

// IdlePrewarmCorrectPercent is the correct-proactive-resume share of time.
func (r Report) IdlePrewarmCorrectPercent() float64 { return r.pct(IdlePrewarmCorrect) }

// IdlePrewarmWrongPercent is the wrong-proactive-resume share of time.
func (r Report) IdlePrewarmWrongPercent() float64 { return r.pct(IdlePrewarmWrong) }

// SavedPercent is the share of time resources were correctly reclaimed.
func (r Report) SavedPercent() float64 { return r.pct(Saved) }

// UsedPercent is the share of time resources were used by customers.
func (r Report) UsedPercent() float64 { return r.pct(Used) }

// UnavailablePercent is the share of time demand went unmet during
// reactive resumes.
func (r Report) UnavailablePercent() float64 { return r.pct(Unavailable) }

// String renders the report as the two panels the paper's figures show:
// QoS (first logins) and COGS (idle time decomposition).
func (r Report) String() string {
	var b strings.Builder
	if r.Name != "" {
		fmt.Fprintf(&b, "%s\n", r.Name)
	}
	fmt.Fprintf(&b, "  QoS: %5.1f%% of first logins warm (%d warm, %d cold)\n",
		r.QoSPercent(), r.WarmLogins, r.ColdLogins)
	fmt.Fprintf(&b, "  idle time: %5.2f%% total (logical %.2f%%, prewarm-correct %.2f%%, prewarm-wrong %.2f%%)\n",
		r.IdlePercent(), r.IdleLogicalPercent(),
		r.IdlePrewarmCorrectPercent(), r.IdlePrewarmWrongPercent())
	fmt.Fprintf(&b, "  saved: %5.2f%%  used: %5.2f%%  unavailable: %5.3f%%\n",
		r.SavedPercent(), r.UsedPercent(), r.UnavailablePercent())
	fmt.Fprintf(&b, "  prewarms: %d (%d used, %d wasted)  pauses: %d logical, %d physical\n",
		r.Prewarms, r.PrewarmsUsed, r.PrewarmsWasted, r.LogicalPauses, r.PhysicalPauses)
	return b.String()
}
