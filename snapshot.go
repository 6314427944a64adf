package prorp

import (
	"io"
	"time"

	"prorp/internal/policy"
)

// WriteTo serializes the database controller — lifecycle state, prediction,
// and the full activity history — so it can move across nodes or survive a
// control-plane restart (the durability requirement of Section 3.3 of the
// paper). It implements io.WriterTo.
func (d *Database) WriteTo(w io.Writer) (int64, error) {
	return d.machine.WriteTo(w)
}

// RestoreDatabase reconstructs a controller from a snapshot written by
// WriteTo. Options need not match the snapshotting side: restored
// databases immediately follow re-trained knobs. The returned wakeAt is
// non-zero when the database was logically paused and the host must call
// Wake at (or after) that time.
func RestoreDatabase(opts Options, id int, r io.Reader) (db *Database, wakeAt time.Time, err error) {
	m, err := policy.Restore(opts.policyConfig(), r)
	if err != nil {
		return nil, time.Time{}, err
	}
	db = &Database{id: id, machine: m, opts: opts}
	if ts := m.RestoredTimer(); ts > 0 {
		wakeAt = time.Unix(ts, 0).UTC()
	}
	return db, wakeAt, nil
}
