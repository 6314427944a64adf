package prorp

import (
	"bytes"
	"io"
	"time"

	"prorp/internal/frame"
	"prorp/internal/policy"
)

// WriteTo serializes the database controller — lifecycle state, prediction,
// and the full activity history — so it can move across nodes or survive a
// control-plane restart (the durability requirement of Section 3.3 of the
// paper). The image is one checksummed frame. It implements io.WriterTo.
func (d *Database) WriteTo(w io.Writer) (int64, error) {
	return writeDatabase(w, d.machine)
}

// writeDatabase frames one machine's snapshot as a database image.
func writeDatabase(w io.Writer, m *policy.Machine) (int64, error) {
	return frame.Write(w, frame.KindDatabase, func(buf *bytes.Buffer) error {
		_, err := m.WriteTo(buf)
		return err
	})
}

// readDatabase verifies a database image and returns its policy body.
func readDatabase(r io.Reader) (io.Reader, error) {
	body, err := frame.Read(frame.KindDatabase, r)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(body), nil
}

// RestoreDatabase reconstructs a controller from a snapshot written by
// WriteTo. Options need not match the snapshotting side: restored
// databases immediately follow re-trained knobs. The returned wakeAt is
// non-zero when the database was logically paused and the host must call
// Wake at (or after) that time.
func RestoreDatabase(opts Options, id int, r io.Reader) (db *Database, wakeAt time.Time, err error) {
	body, err := readDatabase(r)
	var m *policy.Machine
	if err == nil {
		m, err = policy.Restore(opts.policyConfig(), body)
	}
	if err != nil {
		return nil, time.Time{}, err
	}
	db = &Database{id: id, machine: m, opts: opts}
	if ts := m.RestoredTimer(); ts > 0 {
		wakeAt = time.Unix(ts, 0).UTC()
	}
	return db, wakeAt, nil
}
