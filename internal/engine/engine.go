// Package engine runs the region-scale discrete-event simulation that
// stands in for production: customer activity traces drive one
// controlplane.Partition (Algorithms 1 and 5, the lifecycle core each shard
// of the serving fleet runs too), whose effects drive cluster allocation
// workflows, while telemetry and KPI metrics are collected exactly as
// Section 8 of the ProRP paper defines them.
//
// The engine is deterministic: the same configuration and traces produce
// the same result, byte for byte.
package engine

import (
	"fmt"

	"prorp/internal/cluster"
	"prorp/internal/controlplane"
	"prorp/internal/metrics"
	"prorp/internal/policy"
	"prorp/internal/simclock"
	"prorp/internal/stats"
	"prorp/internal/telemetry"
	"prorp/internal/workload"
)

// Event ordering at equal timestamps: the control plane pre-warms first
// (it runs k minutes ahead by design), then customer activity, then policy
// timers.
const (
	prioControlPlane = -1
	prioActivity     = 0
	prioTimer        = 1
	prioWorkflowDone = 2
)

// Config assembles one simulation run.
type Config struct {
	// Policy is the per-database policy (reactive baseline or proactive).
	Policy policy.Config
	// ControlPlane tunes Algorithm 5; ignored for the reactive policy.
	ControlPlane controlplane.Config
	// Cluster sizes the simulated region.
	Cluster cluster.Config
	// From/To bound the simulated horizon (epoch seconds).
	From, To int64
	// EvalFrom is where KPI measurement starts; the span before it is the
	// warm-up that builds database history. Must be in [From, To).
	EvalFrom int64
	// EvalTo is where KPI measurement ends; 0 means the horizon end. Used
	// by per-day evaluations (Figure 7).
	EvalTo int64
	// Seed feeds the cluster's stuck-workflow draws.
	Seed int64
	// DisablePrewarm turns off the proactive resume operation while
	// keeping proactive pauses — the ablation isolating Algorithm 5's
	// contribution.
	DisablePrewarm bool
	// StuckSweepThresholdSec is how old an in-flight workflow must be for
	// the diagnostics runner to mitigate it (default 600 s).
	StuckSweepThresholdSec int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Policy.Mode == policy.Proactive {
		if err := c.ControlPlane.Validate(); err != nil {
			return err
		}
	}
	if c.To <= c.From {
		return fmt.Errorf("engine: horizon [%d,%d) empty", c.From, c.To)
	}
	if c.EvalFrom < c.From || c.EvalFrom >= c.To {
		return fmt.Errorf("engine: eval start %d outside horizon [%d,%d)", c.EvalFrom, c.From, c.To)
	}
	if c.EvalTo != 0 && (c.EvalTo <= c.EvalFrom || c.EvalTo > c.To) {
		return fmt.Errorf("engine: eval end %d outside (%d,%d]", c.EvalTo, c.EvalFrom, c.To)
	}
	return nil
}

// evalTo resolves the effective evaluation end.
func (c Config) evalTo() int64 {
	if c.EvalTo != 0 {
		return c.EvalTo
	}
	return c.To
}

// Result is everything one run produces.
type Result struct {
	Report       metrics.Report
	Telemetry    *telemetry.Log
	ClusterStats cluster.Stats
	Mitigations  int
	// Machines are the per-database policy machines after the run; the
	// Figure 10 harness inspects their history stores.
	Machines []*policy.Machine
	// Occupancy is the distribution of simultaneously allocated databases,
	// sampled every 5 minutes over the evaluation window. Its mean and
	// peak quantify the paper's capacity claim: fewer concurrently
	// allocated databases means fewer physical machines provisioned.
	Occupancy stats.Summary
}

// dbRuntime is the engine-side state of one database.
type dbRuntime struct {
	id      int
	trace   workload.Trace
	nextIvl int // index of the next interval to start

	timer *simclock.Event

	// acct is the database's open §8 segment, advanced by every record it
	// emits.
	acct metrics.Account
}

type sim struct {
	cfg    Config
	clock  simclock.Queue
	dbs    map[int]*dbRuntime
	part   *controlplane.Partition
	runner *controlplane.Runner
	clus   *cluster.Cluster
	tel    *telemetry.Log
	coll   *metrics.Collector

	occupancy []float64
}

// Run executes the simulation over the traces and returns the collected
// result.
func Run(cfg Config, traces []workload.Trace) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i := range traces {
		if err := traces[i].Validate(); err != nil {
			return nil, err
		}
	}
	clus, err := cluster.New(cfg.Cluster, cfg.Seed)
	if err != nil {
		return nil, err
	}
	coll, err := metrics.NewCollector(cfg.EvalFrom, cfg.evalTo())
	if err != nil {
		return nil, err
	}
	threshold := cfg.StuckSweepThresholdSec
	if threshold == 0 {
		threshold = 600
	}
	s := &sim{
		cfg:    cfg,
		dbs:    make(map[int]*dbRuntime, len(traces)),
		part:   controlplane.NewPartition(cfg.Policy),
		runner: controlplane.NewRunner(threshold),
		clus:   clus,
		tel:    telemetry.New(),
		coll:   coll,
	}

	for _, tr := range traces {
		if tr.Birth < cfg.From || tr.Birth >= cfg.To {
			return nil, fmt.Errorf("engine: trace %d born at %d outside horizon", tr.DB, tr.Birth)
		}
		if s.dbs[tr.DB] != nil {
			return nil, fmt.Errorf("engine: two traces for database %d", tr.DB)
		}
		rt := &dbRuntime{id: tr.DB, trace: tr, nextIvl: 1}
		s.dbs[tr.DB] = rt
		s.clock.ScheduleWithPriority(tr.Birth, prioActivity, func(now int64) { s.onBirth(rt, now) })
	}

	if cfg.Policy.Mode == policy.Proactive && !cfg.DisablePrewarm {
		s.clock.ScheduleWithPriority(cfg.From+cfg.ControlPlane.OpPeriodSec, prioControlPlane, s.onControlPlaneOp)
	}
	s.clock.ScheduleWithPriority(cfg.EvalFrom, prioControlPlane, s.onOccupancySample)

	s.clock.RunUntil(cfg.To)

	// Close every open segment at the horizon end.
	machines := make([]*policy.Machine, 0, len(traces))
	for _, tr := range traces {
		if m, born := s.part.Machine(tr.DB); born {
			coll.Close(&s.dbs[tr.DB].acct, cfg.To)
			machines = append(machines, m)
		}
	}
	return &Result{
		Report:       coll.Report(),
		Telemetry:    s.tel,
		ClusterStats: clus.Stats(),
		Mitigations:  s.runner.Mitigations,
		Machines:     machines,
		Occupancy:    stats.Summarize(s.occupancy),
	}, nil
}

// emit appends one record of rt to the log and folds it into rt's account.
func (s *sim) emit(rt *dbRuntime, kind telemetry.Kind, now int64) {
	r := telemetry.Record{Time: now, DB: rt.id, Kind: kind}
	s.tel.Append(r)
	s.coll.Observe(&rt.acct, r)
}

// onBirth creates the database: machine construction, first allocation,
// and the end-of-first-activity event.
func (s *sim) onBirth(rt *dbRuntime, now int64) {
	s.deliver(rt, controlplane.KindCreate, now)
	rt.acct = metrics.NewAccount(now)
	s.emit(rt, telemetry.ActivityStart, now)
	s.allocate(rt, now)
	s.clock.ScheduleWithPriority(rt.trace.Intervals[0].End, prioActivity, func(t int64) { s.onActivityEnd(rt, t) })
}

// allocate runs a resource allocation workflow and returns its latency.
// Allocation of an already-allocated database costs nothing (logical
// pauses keep resources warm).
func (s *sim) allocate(rt *dbRuntime, now int64) int64 {
	res, err := s.clus.Allocate(rt.id)
	done := func(int64) { s.runner.WorkflowFinished(rt.id) }
	switch {
	case err != nil:
		// Region out of capacity: the workflow queues and retries; the
		// customer sees an extended delay. Modelled as a fixed penalty
		// plus forced success after the penalty via a scheduled retry.
		res.LatencySec = 4 * s.cfg.Cluster.ResumeLatencySec
		done = func(int64) {
			if _, err := s.clus.Allocate(rt.id); err == nil {
				s.runner.WorkflowFinished(rt.id)
			}
		}
	case res.LatencySec == 0:
		return 0 // already allocated
	default:
		s.emit(rt, telemetry.WorkflowAllocate, now)
		if res.Moved {
			s.emit(rt, telemetry.DatabaseMoved, now)
		}
	}
	s.runner.WorkflowStarted(rt.id, now, "resume")
	s.clock.ScheduleWithPriority(now+res.LatencySec, prioWorkflowDone, done)
	return res.LatencySec
}

// deliver applies one event to rt's database in the partition and
// performs its effects.
func (s *sim) deliver(rt *dbRuntime, kind controlplane.Kind, now int64) {
	eff, err := s.part.Apply(kind, rt.id, now)
	if err != nil {
		panic(err) // Run validated the config and the trace ids: a bug
	}
	s.applyEffects(rt, eff, now)
}

// applyEffects emits the records of a policy decision and performs its
// environment side.
func (s *sim) applyEffects(rt *dbRuntime, eff policy.Effects, now int64) {
	recs := eff.Records()
	for _, kind := range recs.Kinds() {
		s.emit(rt, kind, now)
	}
	if eff.Allocate {
		lat := s.allocate(rt, now)
		if eff.Transition == policy.TransResumeCold {
			// The customer waits for the allocation workflow.
			s.coll.Wait(&rt.acct, now, now+lat)
		}
	}

	// Timer reconciliation: Effects carries the complete desired state.
	s.clock.Cancel(rt.timer)
	rt.timer = nil
	if eff.TimerAt > 0 {
		rt.timer = s.clock.ScheduleWithPriority(max(eff.TimerAt, now), prioTimer, func(t int64) {
			s.deliver(rt, controlplane.KindWake, t)
		})
	}

	if eff.Reclaim {
		s.clus.Release(rt.id)
		s.emit(rt, telemetry.WorkflowReclaim, now)
	}
}

func (s *sim) onActivityStart(rt *dbRuntime, now int64) {
	s.emit(rt, telemetry.ActivityStart, now)
	s.deliver(rt, controlplane.KindLogin, now)

	// Schedule the end of this activity interval.
	end := rt.trace.Intervals[rt.nextIvl-1].End
	s.clock.ScheduleWithPriority(end, prioActivity, func(t int64) { s.onActivityEnd(rt, t) })
}

func (s *sim) onActivityEnd(rt *dbRuntime, now int64) {
	s.emit(rt, telemetry.ActivityEnd, now)
	s.deliver(rt, controlplane.KindLogout, now)

	// Schedule the next activity interval, if any.
	if rt.nextIvl < len(rt.trace.Intervals) {
		iv := rt.trace.Intervals[rt.nextIvl]
		rt.nextIvl++
		s.clock.ScheduleWithPriority(iv.Start, prioActivity, func(t int64) { s.onActivityStart(rt, t) })
	}
}

// onControlPlaneOp is one iteration of the proactive resume operation
// (Algorithm 5) plus the diagnostics sweep.
func (s *sim) onControlPlaneOp(now int64) {
	for _, pw := range s.part.ResumeOp(s.cfg.ControlPlane, now) {
		s.applyEffects(s.dbs[pw.ID], pw.Effects, now)
	}

	for _, db := range s.runner.Sweep(now) {
		s.emit(s.dbs[db], telemetry.Mitigation, now)
	}

	next := now + s.cfg.ControlPlane.OpPeriodSec
	if next < s.cfg.To {
		s.clock.ScheduleWithPriority(next, prioControlPlane, s.onControlPlaneOp)
	}
}

// onOccupancySample records how many databases hold resources right now;
// it reschedules itself every 5 minutes through the evaluation window.
func (s *sim) onOccupancySample(now int64) {
	if now >= s.cfg.evalTo() {
		return
	}
	s.occupancy = append(s.occupancy, float64(s.clus.AllocatedCount()))
	if next := now + 300; next < s.cfg.evalTo() {
		s.clock.ScheduleWithPriority(next, prioControlPlane, s.onOccupancySample)
	}
}
