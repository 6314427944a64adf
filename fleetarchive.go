package prorp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"prorp/internal/shardedfleet"
)

// Fleet archives serialize every database of a fleet in one stream, so a
// control-plane restart (or a wholesale node migration) restores the
// complete region state: lifecycle states, histories, predictions, and the
// paused-database metadata. The PRF1 format is defined once, by
// shardedfleet.WriteArchive / ReadArchive, so Fleet and ShardedFleet
// archives are byte-identical for the same state.

// WriteTo archives the whole fleet, databases in id order. It implements
// io.WriterTo.
func (f *Fleet) WriteTo(w io.Writer) (int64, error) {
	ids := make([]int, 0, len(f.dbs))
	for id := range f.dbs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return shardedfleet.WriteArchive(w, ids, func(id int, w io.Writer) error {
		_, err := f.dbs[id].WriteTo(w)
		return err
	})
}

// PendingWake pairs a restored database with the wake-up its host must
// schedule.
type PendingWake struct {
	ID     int
	WakeAt time.Time
}

// RestoreFleet reconstructs a fleet from an archive written by WriteTo,
// under possibly re-trained options. It returns the wake-ups the host must
// schedule for logically paused databases. Undecodable input — truncated,
// bit-flipped, wrong format — yields an error wrapping ErrCorruptArchive,
// never a panic.
func RestoreFleet(opts Options, r io.Reader) (*Fleet, []PendingWake, error) {
	fleet, err := NewFleet(opts)
	if err != nil {
		return nil, nil, err
	}
	var wakes []PendingWake
	err = shardedfleet.ReadArchive(r, func(id int, snap io.Reader) error {
		_, wakeAt, err := fleet.Restore(id, snap)
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
