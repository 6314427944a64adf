package prorp

import (
	"testing"
	"time"

	"prorp/internal/cluster"
	"prorp/internal/engine"
	"prorp/internal/simclock"
	"prorp/internal/workload"
)

// The simulator's event order at equal timestamps: the Algorithm 5 beat,
// then customer activity, then wake-ups.
const (
	prioBeat     = -1
	prioActivity = 0
	prioWake     = 1
)

// TestFleetKPIMatchesSimulatorReport is the cross-tier check: one
// 60-database EU1 trace, in each mode, replayed through the simulator and
// through a ShardedFleet in the simulator's event order — in proactive
// mode with the Algorithm 5 beat at the simulator's cadence, ahead of
// activity at the same second, and a later decision cancelling a pending
// wake-up as the simulator's timer does. Both tiers drive the same
// controlplane.Partition and count their transitions through the one
// Effects → record translation, so the fleet's seven transition counters
// equal the report's.
func TestFleetKPIMatchesSimulatorReport(t *testing.T) {
	const (
		dbs  = 60
		days = 14
		seed = 21
	)
	prof, err := workload.Region("EU1")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(seed, prof)
	if err != nil {
		t.Fatal(err)
	}
	to := int64(days * secondsPerDay)
	traces := gen.Generate(dbs, 0, to)

	for _, mode := range []Mode{Reactive, Proactive} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Mode = mode
			res, err := engine.Run(engine.Config{
				Policy:       opts.policyConfig(),
				ControlPlane: opts.controlPlaneConfig(),
				Cluster:      cluster.DefaultConfig(dbs),
				From:         0,
				EvalFrom:     0,
				To:           to,
				Seed:         seed,
			}, traces)
			if err != nil {
				t.Fatal(err)
			}

			kpi, rep := replayThroughFleet(t, opts, traces, to), res.Report
			if kpi.WarmResumes == 0 || kpi.ColdResumes == 0 || kpi.PhysicalPauses == 0 ||
				mode == Proactive && (kpi.Prewarms == 0 || kpi.PrewarmsUsed == 0 || kpi.PrewarmsWasted == 0) {
				t.Fatalf("replay exercised too little: %+v", kpi)
			}
			for _, c := range []struct {
				name        string
				fleet, want uint64
			}{
				{"warm resumes", kpi.WarmResumes, uint64(rep.WarmLogins)},
				{"cold resumes", kpi.ColdResumes, uint64(rep.ColdLogins)},
				{"logical pauses", kpi.LogicalPauses, uint64(rep.LogicalPauses)},
				{"physical pauses", kpi.PhysicalPauses, uint64(rep.PhysicalPauses)},
				{"prewarms", kpi.Prewarms, uint64(rep.Prewarms)},
				{"prewarms used", kpi.PrewarmsUsed, uint64(rep.PrewarmsUsed)},
				{"prewarms wasted", kpi.PrewarmsWasted, uint64(rep.PrewarmsWasted)},
			} {
				if c.fleet != c.want {
					t.Errorf("%s: fleet %d, simulator %d", c.name, c.fleet, c.want)
				}
			}
		})
	}
}

// replayThroughFleet drives a ShardedFleet through the traces on a virtual
// clock, in the simulator's event order, up to (not including) to, the end
// of the report's window.
func replayThroughFleet(t *testing.T, opts Options, traces []workload.Trace, to int64) FleetKPI {
	t.Helper()
	f, err := NewShardedFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	var (
		q     simclock.Queue
		wake  = map[int]*simclock.Event{} // the wake-up each database has pending
		apply func(id int, op func(int, time.Time) (Decision, error), now int64)
	)
	decide := func(id int, d Decision, now int64) {
		q.Cancel(wake[id])
		delete(wake, id)
		if !d.WakeAt.IsZero() {
			wake[id] = q.ScheduleWithPriority(max(d.WakeAt.Unix(), now), prioWake,
				func(now int64) { apply(id, f.Wake, now) })
		}
	}
	apply = func(id int, op func(int, time.Time) (Decision, error), now int64) {
		d, err := op(id, time.Unix(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		decide(id, d, now)
	}
	for _, tr := range traces {
		if err := f.Create(tr.DB, time.Unix(tr.Birth, 0)); err != nil {
			t.Fatal(err)
		}
		for i, iv := range tr.Intervals {
			if i > 0 {
				q.ScheduleWithPriority(iv.Start, prioActivity, func(now int64) { apply(tr.DB, f.Login, now) })
			}
			q.ScheduleWithPriority(iv.End, prioActivity, func(now int64) { apply(tr.DB, f.Idle, now) })
		}
	}
	if opts.Mode == Proactive {
		period := int64(opts.ResumeOpPeriod / time.Second)
		var beat func(now int64)
		beat = func(now int64) {
			for _, pw := range f.RunResumeOp(time.Unix(now, 0)) {
				decide(pw.ID, pw.Decision, now)
			}
			if next := now + period; next < to {
				q.ScheduleWithPriority(next, prioBeat, beat)
			}
		}
		q.ScheduleWithPriority(period, prioBeat, beat)
	}
	q.RunUntil(to - 1)
	return f.KPI()
}
