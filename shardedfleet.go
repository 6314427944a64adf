package prorp

import (
	"io"
	"math"
	"time"

	"prorp/internal/controlplane"
	"prorp/internal/historystore"
	"prorp/internal/maintenance"
	"prorp/internal/obs"
	"prorp/internal/policy"
	"prorp/internal/predictor"
	"prorp/internal/shardedfleet"
	"prorp/internal/telemetry"
)

// ShardedFleet is the online serving runtime and the one concurrency-safe
// fleet: databases are partitioned across shards (FNV hash on database
// id), each shard behind its own mutex, so unrelated databases never
// contend. Every operation applies inline under the owning shard's lock;
// a single-stripe fleet (NewShardedFleetShards(opts, 1)) is the
// global-mutex baseline. It exposes operation-level methods only — handing
// out *Database from behind a lock would defeat it. See
// internal/shardedfleet for the runtime's concurrency contract.
type ShardedFleet struct {
	rt   *shardedfleet.Runtime
	opts Options
}

// NewShardedFleet builds a sharded fleet with the default stripe count.
func NewShardedFleet(opts Options) (*ShardedFleet, error) {
	return NewShardedFleetShards(opts, 0)
}

// NewShardedFleetShards builds a sharded fleet with an explicit stripe
// count (0 = default).
func NewShardedFleetShards(opts Options, shards int) (*ShardedFleet, error) {
	rt, err := shardedfleet.New(shardedfleet.Config{
		Shards:  shards,
		Policy:  opts.policyConfig(),
		Control: opts.controlPlaneConfig(),
	})
	if err != nil {
		return nil, err
	}
	return &ShardedFleet{rt: rt, opts: opts}, nil
}

// Close is a no-op: the fleet owns no goroutine or other resource. It
// survives only because the frozen benchmark/ module calls it.
func (s *ShardedFleet) Close() {}

// InstrumentObs attaches the fleet runtime's live instrumentation —
// per-event-kind decision latency histograms and the Algorithm 5 scan
// duration — to reg. Hosts outside this module cannot name the internal
// registry type, by design: observability is a serving-stack concern, wired
// by internal/server. Without a registry attached the hot path pays one
// atomic load per event.
func (s *ShardedFleet) InstrumentObs(reg *obs.Registry) { s.rt.Instrument(reg) }

// Shards reports the stripe count.
func (s *ShardedFleet) Shards() int { return s.rt.NumShards() }

// Create adds a new database created at createdAt.
func (s *ShardedFleet) Create(id int, createdAt time.Time) error {
	return s.rt.Create(id, createdAt.Unix())
}

// Delete drops a database and its control-plane metadata.
func (s *ShardedFleet) Delete(id int) error { return s.rt.Delete(id) }

// Login records the start of customer activity.
func (s *ShardedFleet) Login(id int, t time.Time) (Decision, error) {
	eff, err := s.rt.Login(id, t.Unix())
	return decisionFrom(eff), err
}

// Idle records the end of customer activity.
func (s *ShardedFleet) Idle(id int, t time.Time) (Decision, error) {
	eff, err := s.rt.Logout(id, t.Unix())
	return decisionFrom(eff), err
}

// Wake delivers a scheduled wake-up.
func (s *ShardedFleet) Wake(id int, t time.Time) (Decision, error) {
	eff, err := s.rt.Wake(id, t.Unix())
	return decisionFrom(eff), err
}

// RunResumeOp runs one control-plane iteration (Algorithm 5) on the
// caller's goroutine: it reads the due databases off the shards' start
// indexes, skipping shards with nothing due, and pre-warms them under the
// fleet-wide per-iteration cap.
func (s *ShardedFleet) RunResumeOp(now time.Time) []Prewarmed {
	pws := s.rt.RunResumeOp(now.Unix())
	out := make([]Prewarmed, len(pws))
	for i, pw := range pws {
		out[i] = Prewarmed{ID: pw.ID, Decision: decisionFrom(pw.Effects)}
	}
	return out
}

// DueForResume runs phase one of Algorithm 5 alone: the read-only scan for
// databases due a pre-warm, uncapped and sorted. Multi-group deployments
// merge every group's scan before applying the global prewarm cap.
func (s *ShardedFleet) DueForResume(now time.Time) []int {
	return s.rt.DueForResume(now.Unix())
}

// PrewarmIDs runs phase two of Algorithm 5 over an explicit id set: each id
// is re-checked under its shard lock and pre-warmed if still physically
// paused. The caller is responsible for any cap.
func (s *ShardedFleet) PrewarmIDs(now time.Time, ids []int) []Prewarmed {
	pws := s.rt.PrewarmIDs(now.Unix(), ids)
	out := make([]Prewarmed, len(pws))
	for i, pw := range pws {
		out[i] = Prewarmed{ID: pw.ID, Decision: decisionFrom(pw.Effects)}
	}
	return out
}

// IDs returns every database id in the fleet, sorted.
func (s *ShardedFleet) IDs() []int { return s.rt.IDs() }

// State reports a database's lifecycle state.
func (s *ShardedFleet) State(id int) (State, error) {
	st, err := s.rt.State(id)
	return State(st), err
}

// Size reports the number of databases.
func (s *ShardedFleet) Size() int { return s.rt.Size() }

// PausedCount reports how many databases are physically paused, read off
// their lifecycle states in either mode.
func (s *ShardedFleet) PausedCount() int { return s.rt.PausedCount() }

// NextPredictedActivity returns a database's current prediction, if any
// (see Database.NextPredictedActivity for its caveats).
func (s *ShardedFleet) NextPredictedActivity(id int) (start, end time.Time, ok bool, err error) {
	var next predictor.Activity
	if err = s.rt.View(id, func(m *policy.Machine) { next = m.NextActivity() }); err != nil {
		return time.Time{}, time.Time{}, false, err
	}
	if next.IsZero() {
		return time.Time{}, time.Time{}, false, nil
	}
	return time.Unix(next.Start, 0).UTC(), time.Unix(next.End, 0).UTC(), true, nil
}

// ExplainPrediction scans every candidate window for one database as of
// now (see Database.ExplainPrediction), under the owning shard's lock.
func (s *ShardedFleet) ExplainPrediction(id int, now time.Time) (windows []PredictionWindow, start, end time.Time, ok bool, err error) {
	_, windows, start, end, ok, err = s.Inspect(id, now, true)
	return windows, start, end, ok, err
}

// Inspect reports a database's lifecycle state together with the prediction
// Algorithm 4 makes for it as of now, both read under one hold of the owning
// shard's lock, so they describe the same instant whatever lands around the
// call. withWindows adds ExplainPrediction's per-window statistics; without
// it windows is nil and the call does not allocate.
func (s *ShardedFleet) Inspect(id int, now time.Time, withWindows bool) (st State, windows []PredictionWindow, start, end time.Time, ok bool, err error) {
	err = s.rt.View(id, func(m *policy.Machine) {
		st = State(m.State())
		windows, start, end, ok = predictionAt(m, s.opts.policyConfig().Predictor, now, withWindows)
	})
	return st, windows, start, end, ok, err
}

// PlanMaintenance schedules a maintenance operation for one database (see
// Database.PlanMaintenance).
func (s *ShardedFleet) PlanMaintenance(id int, now time.Time, duration time.Duration, deadline time.Time) (MaintenancePlan, error) {
	var (
		avail bool
		next  predictor.Activity
	)
	if err := s.rt.View(id, func(m *policy.Machine) {
		avail = m.ResourcesAvailable()
		next = m.NextActivity()
	}); err != nil {
		return MaintenancePlan{}, err
	}
	plan, err := maintenance.Schedule(maintenance.Op{
		DB:          id,
		DurationSec: int64(duration / time.Second),
		DeadlineSec: deadline.Unix(),
	}, now.Unix(), avail, next)
	if err != nil {
		return MaintenancePlan{}, err
	}
	return MaintenancePlan{
		Start:        time.Unix(plan.Start, 0).UTC(),
		Strategy:     MaintenanceStrategy(plan.Strategy),
		AvoidsResume: plan.AvoidsResume,
	}, nil
}

// ActivityEvent is one login or logout in a database's recorded history.
type ActivityEvent struct {
	Time  time.Time
	Login bool
}

// History returns a database's recorded activity events in chronological
// order. It reads under the owning shard's lock; it is for verification
// and tooling, not the hot path.
func (s *ShardedFleet) History(id int) ([]ActivityEvent, error) {
	var out []ActivityEvent
	err := s.rt.View(id, func(m *policy.Machine) {
		for _, e := range m.History().Scan(math.MinInt64, math.MaxInt64) {
			out = append(out, ActivityEvent{
				Time:  time.Unix(e.Time, 0).UTC(),
				Login: e.Type == historystore.EventStart,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Snapshot serializes one database (see Database.WriteTo).
func (s *ShardedFleet) Snapshot(id int, w io.Writer) error {
	var err error
	if verr := s.rt.View(id, func(m *policy.Machine) { _, err = writeDatabase(w, m) }); verr != nil {
		return verr
	}
	return err
}

// Restore adds a snapshotted database (see Database.WriteTo), re-registering
// a physically paused one for proactive resume. The returned wakeAt is
// non-zero when the host must schedule a Wake.
func (s *ShardedFleet) Restore(id int, r io.Reader) (wakeAt time.Time, err error) {
	body, err := readDatabase(r)
	if err != nil {
		return time.Time{}, err
	}
	ts, err := s.rt.RestoreDB(id, body)
	if err != nil {
		return time.Time{}, err
	}
	if ts > 0 {
		wakeAt = time.Unix(ts, 0).UTC()
	}
	return wakeAt, nil
}

// WriteTo archives the whole fleet under a consistent quiesce, databases in
// id order, as one checksummed archive frame: lifecycle states, histories and
// predictions, from which a restore rebuilds the paused-database metadata,
// so a control-plane restart (or a wholesale node migration) restores the
// complete region state. It implements io.WriterTo.
func (s *ShardedFleet) WriteTo(w io.Writer) (int64, error) { return s.rt.WriteTo(w) }

// PendingWake pairs a restored database with the wake-up its host must
// schedule.
type PendingWake struct {
	ID     int
	WakeAt time.Time
}

// PendingWakes reports the wake-up every database's policy has pending, by
// id: the state the WakeAt of every Decision so far adds up to.
func (s *ShardedFleet) PendingWakes() []PendingWake {
	return pendingWakes(s.rt.PendingWakes())
}

// pendingWakes converts the runtime's epoch-second wake-ups.
func pendingWakes(pending []shardedfleet.PendingWake) []PendingWake {
	wakes := make([]PendingWake, len(pending))
	for i, p := range pending {
		wakes[i] = PendingWake{ID: p.ID, WakeAt: time.Unix(p.WakeAt, 0).UTC()}
	}
	return wakes
}

// RestoreShardedFleet reconstructs a sharded fleet (0 shards = default
// stripe count) from an archive written by WriteTo, under possibly
// re-trained options. It returns the wake-ups the host must schedule for
// logically paused databases. Undecodable input — truncated, bit-flipped,
// wrong kind — yields an error wrapping ErrCorruptArchive, never a panic.
func RestoreShardedFleet(opts Options, shards int, r io.Reader) (*ShardedFleet, []PendingWake, error) {
	sf, err := NewShardedFleetShards(opts, shards)
	if err != nil {
		return nil, nil, err
	}
	pending, err := sf.rt.RestoreArchive(r)
	if err != nil {
		return nil, nil, err
	}
	return sf, pendingWakes(pending), nil
}

// FleetKPI is a point-in-time operational report over a ShardedFleet:
// cumulative transition counters since the fleet started (they are not
// persisted in snapshots) plus current state gauges.
type FleetKPI struct {
	// Gauges.
	Databases        int `json:"databases"`
	Resumed          int `json:"resumed"`
	LogicallyPaused  int `json:"logically_paused"`
	PhysicallyPaused int `json:"physically_paused"`
	// Counters.
	Creates        uint64 `json:"creates"`
	Deletes        uint64 `json:"deletes"`
	Logins         uint64 `json:"logins"`
	Logouts        uint64 `json:"logouts"`
	Wakes          uint64 `json:"wakes"`
	WarmResumes    uint64 `json:"warm_resumes"`
	ColdResumes    uint64 `json:"cold_resumes"`
	LogicalPauses  uint64 `json:"logical_pauses"`
	PhysicalPauses uint64 `json:"physical_pauses"`
	Prewarms       uint64 `json:"prewarms"`
	PrewarmsUsed   uint64 `json:"prewarms_used"`
	PrewarmsWasted uint64 `json:"prewarms_wasted"`
	// Resilience counters, filled by the serving layer (zero in library
	// use): backoff retries and terminal failures of snapshot persistence
	// and of the infrastructure side of prewarm/wake delivery, plus boots
	// that restored from the last-known-good fallback snapshot.
	SnapshotRetries   uint64 `json:"snapshot_retries"`
	SnapshotFailures  uint64 `json:"snapshot_failures"`
	SnapshotFallbacks uint64 `json:"snapshot_fallbacks"`
	PrewarmRetries    uint64 `json:"prewarm_retries"`
	PrewarmFailures   uint64 `json:"prewarm_failures"`
	WakeRetries       uint64 `json:"wake_retries"`
	WakeFailures      uint64 `json:"wake_failures"`
	// Durability counters, filled by the serving layer when a write-ahead
	// event journal is configured (zero in library use): journal appends,
	// fsyncs, and segment churn, plus what boot-time replay did.
	WALAppends           uint64 `json:"wal_appends"`
	WALAppendFailures    uint64 `json:"wal_append_failures"`
	WALFsyncs            uint64 `json:"wal_fsyncs"`
	WALRotations         uint64 `json:"wal_rotations"`
	WALSegmentsCompacted uint64 `json:"wal_segments_compacted"`
	WALReplayedRecords   uint64 `json:"wal_replayed_records"`
	WALReplaySkipped     uint64 `json:"wal_replay_skipped"`
	WALTornSegments      uint64 `json:"wal_torn_segments"`
	WALTruncatedBytes    uint64 `json:"wal_truncated_bytes"`
}

// QoSPercent is the paper's headline KPI over the counters: the share of
// first logins after idle that found resources available.
func (k FleetKPI) QoSPercent() float64 {
	total := k.WarmResumes + k.ColdResumes
	if total == 0 {
		return 100
	}
	return 100 * float64(k.WarmResumes) / float64(total)
}

// KPI reports the fleet's live KPI counters and state gauges.
func (s *ShardedFleet) KPI() FleetKPI {
	c := s.rt.KPI()
	resumed, logical, physical := s.rt.StateCounts()
	return FleetKPI{
		Databases:        resumed + logical + physical,
		Resumed:          resumed,
		LogicallyPaused:  logical,
		PhysicallyPaused: physical,
		Creates:          c.Events[controlplane.KindCreate],
		Deletes:          c.Events[controlplane.KindDelete],
		Logins:           c.Events[controlplane.KindLogin],
		Logouts:          c.Events[controlplane.KindLogout],
		Wakes:            c.Events[controlplane.KindWake],
		WarmResumes:      c.Records[telemetry.ResumeWarm],
		ColdResumes:      c.Records[telemetry.ResumeCold],
		LogicalPauses:    c.Records[telemetry.LogicalPause],
		PhysicalPauses:   c.Records[telemetry.PhysicalPause],
		Prewarms:         c.Records[telemetry.Prewarm],
		PrewarmsUsed:     c.Records[telemetry.PrewarmUsed],
		PrewarmsWasted:   c.Records[telemetry.PrewarmWasted],
	}
}
