package prorp

import (
	"container/heap"
	"testing"
	"time"

	"prorp/internal/cluster"
	"prorp/internal/engine"
	"prorp/internal/workload"
)

// fleetEvent is one operation of the cross-tier replay, ordered as the
// simulator orders its events: by time, then activity before wake-ups,
// then scheduling order.
type fleetEvent struct {
	at, prio, seq int64
	db            int
	op            func(f *ShardedFleet, id int, t time.Time) (Decision, error)
}

type fleetEvents []fleetEvent

func (q fleetEvents) Len() int { return len(q) }
func (q fleetEvents) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q fleetEvents) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *fleetEvents) Push(x any)   { *q = append(*q, x.(fleetEvent)) }
func (q *fleetEvents) Pop() (x any) { x, *q = (*q)[len(*q)-1], (*q)[:len(*q)-1]; return x }

// TestFleetKPIMatchesSimulatorReport is the first cross-tier check: one
// 60-database EU1 trace, reactive mode, replayed through the simulator and
// through a ShardedFleet in the simulator's event order (a wake-up due at
// the same second as an activity event is delivered after it). Both tiers
// count their transitions through the one Effects → record translation, so
// the fleet's resume and pause counters equal the report's.
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

	opts := DefaultOptions()
	opts.Mode = Reactive
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

	f, err := NewShardedFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	const prioActivity, prioWake = 0, 1
	var (
		q    fleetEvents
		seq  int64
		wake = map[int]int64{} // the wake-up each database has pending
	)
	push := func(at, prio int64, db int, op func(*ShardedFleet, int, time.Time) (Decision, error)) {
		seq++
		heap.Push(&q, fleetEvent{at: at, prio: prio, seq: seq, db: db, op: op})
	}
	login := func(f *ShardedFleet, id int, t time.Time) (Decision, error) { return f.Login(id, t) }
	idle := func(f *ShardedFleet, id int, t time.Time) (Decision, error) { return f.Idle(id, t) }
	wakeOp := func(f *ShardedFleet, id int, t time.Time) (Decision, error) { return f.Wake(id, t) }
	for _, tr := range traces {
		if err := f.Create(tr.DB, time.Unix(tr.Birth, 0)); err != nil {
			t.Fatal(err)
		}
		for i, iv := range tr.Intervals {
			if i > 0 {
				push(iv.Start, prioActivity, tr.DB, login)
			}
			push(iv.End, prioActivity, tr.DB, idle)
		}
	}
	for q.Len() > 0 && q[0].at < to {
		ev := heap.Pop(&q).(fleetEvent)
		if ev.prio == prioWake && wake[ev.db] != ev.at {
			continue // superseded by a later decision
		}
		d, err := ev.op(f, ev.db, time.Unix(ev.at, 0))
		if err != nil {
			t.Fatal(err)
		}
		wake[ev.db] = 0
		if !d.WakeAt.IsZero() {
			wake[ev.db] = d.WakeAt.Unix()
			push(d.WakeAt.Unix(), prioWake, ev.db, wakeOp)
		}
	}

	kpi, rep := f.KPI(), res.Report
	if kpi.WarmResumes == 0 || kpi.ColdResumes == 0 || kpi.PhysicalPauses == 0 {
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
	} {
		if c.fleet != c.want {
			t.Errorf("%s: fleet %d, simulator %d", c.name, c.fleet, c.want)
		}
	}
}
