package prorp

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"prorp/internal/controlplane"
	"prorp/internal/frame"
	"prorp/internal/shardedfleet"
)

// Fleet is the reference region control plane: Algorithm 5 written the way
// the paper states it — one metadata store of physically paused databases,
// one map of per-database controllers, no locks. It is the oracle
// ShardedFleet is checked against (TestShardedFleetMirrorsFleet,
// FuzzFleetMatchesReference), so it shares the policy machine, the metadata
// store and the archive codec with ShardedFleet but none of its bookkeeping.
// Not safe for concurrent use.
type Fleet struct {
	opts Options
	meta *controlplane.MetadataStore
	dbs  map[int]*Database
}

// NewFleet builds an empty fleet.
func NewFleet(opts Options) (*Fleet, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Fleet{
		opts: opts,
		meta: controlplane.NewMetadataStore(),
		dbs:  make(map[int]*Database),
	}, nil
}

// Create adds a new database to the fleet, created at createdAt.
func (f *Fleet) Create(id int, createdAt time.Time) (*Database, error) {
	if _, exists := f.dbs[id]; exists {
		return nil, fmt.Errorf("prorp: %w: %d", ErrDuplicateDatabase, id)
	}
	db, err := NewDatabase(f.opts, id, createdAt)
	if err != nil {
		return nil, err
	}
	f.dbs[id] = db
	return db, nil
}

// Database returns a fleet member.
func (f *Fleet) Database(id int) (*Database, bool) {
	db, ok := f.dbs[id]
	return db, ok
}

// Delete drops a database from the fleet and clears its control-plane
// metadata, so a pending proactive resume for it cannot fire.
func (f *Fleet) Delete(id int) error {
	if _, ok := f.dbs[id]; !ok {
		return fmt.Errorf("prorp: %w: %d", ErrUnknownDatabase, id)
	}
	delete(f.dbs, id)
	f.meta.ClearPaused(id)
	return nil
}

// Size reports the number of databases in the fleet.
func (f *Fleet) Size() int { return len(f.dbs) }

// PausedCount reports how many databases are physically paused, read off
// their lifecycle states in either mode.
func (f *Fleet) PausedCount() int {
	n := 0
	for _, db := range f.dbs {
		if db.State() == PhysicallyPaused {
			n++
		}
	}
	return n
}

// apply performs the fleet-level bookkeeping of a Decision.
func (f *Fleet) apply(id int, d Decision) Decision {
	switch d.Event {
	case EventPhysicalPause:
		db := f.dbs[id]
		var predStart int64
		if start, _, ok := db.NextPredictedActivity(); ok && db.opts.Mode == Proactive {
			predStart = start.Unix()
		}
		f.meta.SetPaused(id, predStart)
	case EventResumeCold:
		f.meta.ClearPaused(id)
	}
	return d
}

// Login routes a login to the database and maintains fleet metadata.
func (f *Fleet) Login(id int, t time.Time) (Decision, error) {
	db, ok := f.dbs[id]
	if !ok {
		return Decision{}, fmt.Errorf("prorp: %w: %d", ErrUnknownDatabase, id)
	}
	return f.apply(id, db.Login(t)), nil
}

// Idle routes an end-of-activity to the database.
func (f *Fleet) Idle(id int, t time.Time) (Decision, error) {
	db, ok := f.dbs[id]
	if !ok {
		return Decision{}, fmt.Errorf("prorp: %w: %d", ErrUnknownDatabase, id)
	}
	return f.apply(id, db.Idle(t)), nil
}

// Wake routes a wake-up to the database.
func (f *Fleet) Wake(id int, t time.Time) (Decision, error) {
	db, ok := f.dbs[id]
	if !ok {
		return Decision{}, fmt.Errorf("prorp: %w: %d", ErrUnknownDatabase, id)
	}
	return f.apply(id, db.Wake(t)), nil
}

// prewarm is invoked by the Fleet's resume operation.
func (d *Database) prewarm(t time.Time) Decision {
	return decisionFrom(d.machine.OnPrewarm(t.Unix()))
}

// RunResumeOp runs one iteration of the proactive resume operation
// (Algorithm 5): it selects every physically paused database whose
// predicted activity starts within the pre-warm lead of now (bounded by
// the per-iteration cap) and pre-warms it.
func (f *Fleet) RunResumeOp(now time.Time) []Prewarmed {
	if f.opts.Mode != Proactive {
		return nil
	}
	cfg := f.opts.controlPlaneConfig()
	due := f.meta.SelectDue(now.Unix(), cfg.PrewarmLeadSec, cfg.OpPeriodSec)
	if cfg.MaxPrewarmsPerOp > 0 && len(due) > cfg.MaxPrewarmsPerOp {
		due = due[:cfg.MaxPrewarmsPerOp]
	}
	for _, id := range due {
		f.meta.ClearPaused(id)
	}
	var out []Prewarmed
	for _, id := range due {
		db, ok := f.dbs[id]
		if !ok {
			continue
		}
		d := db.prewarm(now)
		if d.Event != EventPrewarm {
			continue // stale entry
		}
		out = append(out, Prewarmed{ID: id, Decision: d})
	}
	return out
}

// Restore adds a snapshotted database to the fleet, re-registering its
// control-plane metadata: a physically paused database becomes eligible
// for proactive resume again without waiting for its next pause.
func (f *Fleet) Restore(id int, r io.Reader) (db *Database, wakeAt time.Time, err error) {
	if _, exists := f.dbs[id]; exists {
		return nil, time.Time{}, fmt.Errorf("prorp: %w: %d", ErrDuplicateDatabase, id)
	}
	db, wakeAt, err = RestoreDatabase(f.opts, id, r)
	if err != nil {
		return nil, time.Time{}, err
	}
	f.dbs[id] = db
	if db.State() == PhysicallyPaused && f.opts.Mode == Proactive {
		var predStart int64
		if start, _, ok := db.NextPredictedActivity(); ok {
			predStart = start.Unix()
		}
		f.meta.SetPaused(id, predStart)
	}
	return db, wakeAt, nil
}

// WriteTo archives the whole fleet, databases in id order, through the one
// archive codec, so its bytes equal ShardedFleet.WriteTo's for the same state.
func (f *Fleet) WriteTo(w io.Writer) (int64, error) {
	ids := make([]int, 0, len(f.dbs))
	for id := range f.dbs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return shardedfleet.WriteArchive(w, ids, func(id int, w io.Writer) error {
		_, err := f.dbs[id].machine.WriteTo(w)
		return err
	})
}

// RestoreFleet reconstructs a fleet from an archive written by WriteTo,
// under possibly re-trained options, and returns the wake-ups the host must
// schedule for logically paused databases.
func RestoreFleet(opts Options, r io.Reader) (*Fleet, []PendingWake, error) {
	fleet, err := NewFleet(opts)
	if err != nil {
		return nil, nil, err
	}
	var wakes []PendingWake
	err = shardedfleet.ReadArchive(r, func(id int, snap io.Reader) error {
		// An archive holds bare policy bodies; Restore reads a framed image.
		var image bytes.Buffer
		_, err := frame.Write(&image, frame.KindDatabase, func(b *bytes.Buffer) error {
			_, err := b.ReadFrom(snap)
			return err
		})
		if err != nil {
			return err
		}
		_, wakeAt, err := fleet.Restore(id, &image)
		if err == nil && !wakeAt.IsZero() {
			wakes = append(wakes, PendingWake{ID: id, WakeAt: wakeAt})
		}
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("prorp: %w", err)
	}
	return fleet, wakes, nil
}
