// Package controlplane implements the region-level components of ProRP
// (Section 7 of the paper): the metadata store over physically paused
// databases (the paper's sys.databases view), the Partition that ties it to
// the databases' Algorithm 1 machines and runs the proactive-resume
// operation of Algorithm 5 — the one lifecycle core the simulator and the
// serving fleet both drive — and the diagnostics-and-mitigation runner that
// watches the resume and pause queues.
package controlplane

import (
	"container/heap"
	"fmt"
	"sort"
)

// MetadataStore is the per-region record of physically paused databases and
// the start of their next predicted activity (Algorithm 1 line 31 writes
// it; Algorithm 5 reads it). A predicted start of 0 means "no prediction" —
// such databases are never proactively resumed.
//
// Beside the id-keyed map the store keeps an index on predicted start, the
// counterpart of the index the paper's SELECT on sys.databases reads: a
// binary min-heap holding every database with start > 0. Each database
// tracks its heap position, so a clear costs O(log n) and SelectDue never
// looks at a database that is not due.
type MetadataStore struct {
	paused  map[int]*pausedDB
	byStart startHeap
}

// pausedDB is one physically paused database.
type pausedDB struct {
	id    int
	start int64
	pos   int // index in byStart; -1 when start <= 0 keeps it out of the index
}

// startHeap is a container/heap min-heap on predicted start that keeps
// every member's pos current.
type startHeap []*pausedDB

func (h startHeap) Len() int           { return len(h) }
func (h startHeap) Less(i, j int) bool { return h[i].start < h[j].start }
func (h startHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *startHeap) Push(x any) {
	p := x.(*pausedDB)
	p.pos = len(*h)
	*h = append(*h, p)
}

func (h *startHeap) Pop() any {
	old := *h
	last := len(old) - 1
	p := old[last]
	old[last] = nil
	*h = old[:last]
	return p
}

// NewMetadataStore returns an empty store.
func NewMetadataStore() *MetadataStore {
	return &MetadataStore{paused: make(map[int]*pausedDB)}
}

// SetPaused records that db physically paused with the given predicted
// next activity start (0 = none).
func (s *MetadataStore) SetPaused(db int, predStart int64) {
	s.ClearPaused(db)
	p := &pausedDB{id: db, start: predStart, pos: -1}
	s.paused[db] = p
	if predStart > 0 {
		heap.Push(&s.byStart, p)
	}
}

// ClearPaused removes db from the paused set (it resumed by any means).
func (s *MetadataStore) ClearPaused(db int) {
	p, ok := s.paused[db]
	if !ok {
		return
	}
	delete(s.paused, db)
	if p.pos >= 0 {
		heap.Remove(&s.byStart, p.pos)
	}
}

// PredictedStart returns the recorded prediction for db.
func (s *MetadataStore) PredictedStart(db int) (int64, bool) {
	p, ok := s.paused[db]
	if !ok {
		return 0, false
	}
	return p.start, true
}

// NextStart returns the earliest predicted start among the paused
// databases, or 0 when none of them has a prediction. SelectDue is empty
// unless NextStart is Due.
func (s *MetadataStore) NextStart() int64 {
	if len(s.byStart) == 0 {
		return 0
	}
	return s.byStart[0].start
}

// Due is the WHERE clause of Algorithm 5's SELECT: a physically paused
// database is due when its predicted activity starts within the k-th
// interval from now — concretely, 0 < start <= now + k + period, where
// period is the cadence of the proactive resume operation. Including
// already-due entries (start < now+k) catches predictions that became due
// between iterations, which the paper's one-minute cadence makes negligible
// but a slower cadence would miss.
func Due(start, now, prewarmLeadSec, periodSec int64) bool {
	return start > 0 && start <= now+prewarmLeadSec+periodSec
}

// SelectDue implements the SELECT of Algorithm 5: the physically paused
// databases that are Due, sorted by database id for determinism. It reads
// the start index from its root and descends only below entries that are
// themselves due, so it costs O(due), not O(paused).
func (s *MetadataStore) SelectDue(now, prewarmLeadSec, periodSec int64) []int {
	due := s.appendDue(nil, 0, now, prewarmLeadSec, periodSec)
	sort.Ints(due)
	return due
}

// appendDue appends the due ids of the heap subtree rooted at i. A subtree
// whose root is not due holds nothing due.
func (s *MetadataStore) appendDue(due []int, i int, now, prewarmLeadSec, periodSec int64) []int {
	if i >= len(s.byStart) || !Due(s.byStart[i].start, now, prewarmLeadSec, periodSec) {
		return due
	}
	due = append(due, s.byStart[i].id)
	due = s.appendDue(due, 2*i+1, now, prewarmLeadSec, periodSec)
	return s.appendDue(due, 2*i+2, now, prewarmLeadSec, periodSec)
}

// Config tunes the region control plane.
type Config struct {
	// OpPeriodSec is the cadence of the proactive resume operation. The
	// paper evaluates 1-15 minutes (Figure 11) and deploys 1 minute.
	OpPeriodSec int64
	// PrewarmLeadSec is k: resources are resumed this long before the
	// predicted activity (Table 1 default: 5 minutes).
	PrewarmLeadSec int64
	// MaxPrewarmsPerOp caps how many databases one iteration resumes, the
	// scaling guardrail discussed with Figure 11 (about one hundred in
	// production). 0 means unlimited.
	MaxPrewarmsPerOp int
}

// DefaultConfig returns the production settings: 1-minute cadence, 5-minute
// pre-warm lead, 100 pre-warms per iteration.
func DefaultConfig() Config {
	return Config{OpPeriodSec: 60, PrewarmLeadSec: 300, MaxPrewarmsPerOp: 100}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.OpPeriodSec <= 0 {
		return fmt.Errorf("controlplane: op period %d s, want > 0", c.OpPeriodSec)
	}
	if c.PrewarmLeadSec < 0 {
		return fmt.Errorf("controlplane: negative prewarm lead")
	}
	if c.MaxPrewarmsPerOp < 0 {
		return fmt.Errorf("controlplane: negative prewarm cap")
	}
	return nil
}

// Runner is the diagnostics-and-mitigation runner of Section 7: it watches
// the volume of in-flight resume and pause workflows and mitigates the ones
// that exceed the stuck threshold. "In rare cases, this automatic
// mitigation process times out or fails, incidents are triggered and
// resolved by an on-call engineer" — modelled by MitigationFailureProb and
// the Incidents counter.
type Runner struct {
	// StuckThresholdSec is how long a workflow may stay in flight before
	// the runner mitigates it.
	StuckThresholdSec int64
	// MitigationFailureProb is the probability a mitigation attempt fails
	// and escalates to an incident instead (0 in the default runner).
	MitigationFailureProb float64

	inflight map[int]workflow
	// Mitigations counts completed mitigations.
	Mitigations int
	// Incidents counts failed mitigations escalated to an on-call
	// engineer; the workflow is resolved manually (removed from the
	// queue) but counted separately.
	Incidents int

	// failureSeq drives the deterministic failure injection.
	failureSeq uint64
}

type workflow struct {
	startedAt int64
	kind      string
}

// NewRunner returns a runner with the given stuck threshold.
func NewRunner(stuckThresholdSec int64) *Runner {
	return &Runner{
		StuckThresholdSec: stuckThresholdSec,
		inflight:          make(map[int]workflow),
	}
}

// WorkflowStarted records that a resume or pause workflow began for db.
func (r *Runner) WorkflowStarted(db int, now int64, kind string) {
	r.inflight[db] = workflow{startedAt: now, kind: kind}
}

// WorkflowFinished records normal completion.
func (r *Runner) WorkflowFinished(db int) {
	delete(r.inflight, db)
}

// Sweep mitigates every workflow in flight longer than the threshold and
// returns the mitigated database ids (sorted). With a non-zero
// MitigationFailureProb some mitigations fail and escalate to incidents
// (deterministically, via a seeded pseudo-random sequence); both paths
// drain the stuck workflow.
func (r *Runner) Sweep(now int64) []int {
	var stuck []int
	for db, wf := range r.inflight {
		if now-wf.startedAt >= r.StuckThresholdSec {
			stuck = append(stuck, db)
		}
	}
	sort.Ints(stuck)
	mitigated := stuck[:0]
	for _, db := range stuck {
		delete(r.inflight, db)
		if r.MitigationFailureProb > 0 && r.nextFloat() < r.MitigationFailureProb {
			r.Incidents++
			continue
		}
		r.Mitigations++
		mitigated = append(mitigated, db)
	}
	return mitigated
}

// nextFloat is a deterministic xorshift-based uniform draw in [0, 1).
func (r *Runner) nextFloat() float64 {
	r.failureSeq = r.failureSeq*6364136223846793005 + 1442695040888963407
	return float64(r.failureSeq>>11) / float64(1<<53)
}
