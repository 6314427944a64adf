// Package telemetry is the long-term event log of the ProRP infrastructure
// — the stand-in for the Cosmos big-data platform of the paper (Section 3.1).
//
// Every online component emits records here: customer activity, lifecycle
// transitions, resource allocation and reclamation workflows, control-plane
// pre-warms, and mitigations. The KPI evaluation (Section 8) and the
// offline training pipeline both consume this log. Records carry the same
// schema the paper describes: timestamp in seconds, database identifier,
// and the component result.
package telemetry

import "fmt"

// Kind classifies a telemetry record.
type Kind int

const (
	// ActivityStart: a customer login (start of demand).
	ActivityStart Kind = iota
	// ActivityEnd: end of customer activity.
	ActivityEnd
	// ResumeWarm: first login after idle with resources available.
	ResumeWarm
	// ResumeCold: first login after idle triggering a reactive resume.
	ResumeCold
	// LogicalPause: database entered logical pause.
	LogicalPause
	// PhysicalPause: resources reclaimed.
	PhysicalPause
	// Prewarm: control plane proactively resumed the database (Algorithm 5).
	Prewarm
	// PrewarmUsed: a prewarmed database was used by the customer (a
	// correct proactive resume).
	PrewarmUsed
	// PrewarmWasted: a prewarmed database physically paused again without
	// customer use (a wrong proactive resume).
	PrewarmWasted
	// WorkflowAllocate: a resource allocation workflow ran in the backend.
	WorkflowAllocate
	// WorkflowReclaim: a resource reclamation workflow ran in the backend.
	WorkflowReclaim
	// DatabaseMoved: allocation required moving the database to another
	// node (capacity shortage on the home node).
	DatabaseMoved
	// Mitigation: the diagnostics runner mitigated a stuck workflow.
	Mitigation
	// NumKinds sizes arrays indexed by Kind.
	NumKinds
)

var kindNames = [...]string{
	ActivityStart:    "activity-start",
	ActivityEnd:      "activity-end",
	ResumeWarm:       "resume-warm",
	ResumeCold:       "resume-cold",
	LogicalPause:     "logical-pause",
	PhysicalPause:    "physical-pause",
	Prewarm:          "prewarm",
	PrewarmUsed:      "prewarm-used",
	PrewarmWasted:    "prewarm-wasted",
	WorkflowAllocate: "workflow-allocate",
	WorkflowReclaim:  "workflow-reclaim",
	DatabaseMoved:    "database-moved",
	Mitigation:       "mitigation",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Record is one telemetry event.
type Record struct {
	Time int64 // epoch seconds
	DB   int   // database identifier
	Kind Kind
}

// Log is an append-only, time-ordered event log. Not safe for concurrent
// use; the simulation is single-threaded and deterministic.
type Log struct {
	records []Record
	counts  [NumKinds]int
	lastT   int64
}

// New returns an empty log.
func New() *Log { return &Log{lastT: -1 << 62} }

// Append adds a record. Records must arrive in non-decreasing time order —
// out-of-order appends indicate an engine bug and panic.
func (l *Log) Append(r Record) {
	if r.Time < l.lastT {
		panic(fmt.Sprintf("telemetry: record at %d after %d", r.Time, l.lastT))
	}
	if r.Kind < 0 || r.Kind >= NumKinds {
		panic(fmt.Sprintf("telemetry: unknown kind %d", int(r.Kind)))
	}
	l.lastT = r.Time
	l.records = append(l.records, r)
	l.counts[r.Kind]++
}

// Len reports the number of records.
func (l *Log) Len() int { return len(l.records) }

// Count reports how many records of kind k were appended.
func (l *Log) Count(k Kind) int {
	if k < 0 || k >= NumKinds {
		return 0
	}
	return l.counts[k]
}

// Records returns the full log. The caller must not mutate it.
func (l *Log) Records() []Record { return l.records }

// CountRange reports records of kind k with Time in [lo, hi].
func (l *Log) CountRange(k Kind, lo, hi int64) int {
	n := 0
	for _, r := range l.records {
		if r.Kind == k && r.Time >= lo && r.Time <= hi {
			n++
		}
	}
	return n
}

// Buckets counts records of kind k in consecutive intervals of width
// `interval` seconds covering [from, to): result[i] counts records with
// from+i*interval <= Time < from+(i+1)*interval. This is the series behind
// Figures 11 and 12 (workflows per iteration of the periodic operation).
func (l *Log) Buckets(k Kind, from, to, interval int64) []int {
	if interval <= 0 || to <= from {
		return nil
	}
	n := (to - from + interval - 1) / interval
	out := make([]int, n)
	for _, r := range l.records {
		if r.Kind != k || r.Time < from || r.Time >= to {
			continue
		}
		out[(r.Time-from)/interval]++
	}
	return out
}

// Visit calls fn for each record of kind k in time order.
func (l *Log) Visit(k Kind, fn func(Record)) {
	for _, r := range l.records {
		if r.Kind == k {
			fn(r)
		}
	}
}
