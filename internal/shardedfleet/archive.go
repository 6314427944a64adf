package shardedfleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"prorp/internal/controlplane"
	"prorp/internal/frame"
	"prorp/internal/policy"
)

// The fleet archive is the one wire format a fleet writes and reads (the
// root package's reference Fleet, a test oracle, goes through WriteArchive
// and ReadArchive too, so its archives are byte-identical). It is one
// internal/frame KindArchive frame whose body is
//
//	count  uint32
//	count x { id int64, size uint32, database body (policy wire format) }
//
// A snapshot nests this body bare, under its own frame.

// WriteArchive writes an archive holding one record per id, in the order
// given; snapshot must write database id's bare policy body.
func WriteArchive(w io.Writer, ids []int, snapshot func(id int, w io.Writer) error) (int64, error) {
	return frame.Write(w, frame.KindArchive, func(buf *bytes.Buffer) error {
		buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(ids))))
		var rec [12]byte
		for _, id := range ids {
			at := buf.Len()
			buf.Write(rec[:])
			if err := snapshot(id, buf); err != nil {
				return err
			}
			b := buf.Bytes()[at:]
			binary.LittleEndian.PutUint64(b[0:8], uint64(int64(id)))
			binary.LittleEndian.PutUint32(b[8:12], uint32(len(b)-len(rec)))
		}
		return nil
	})
}

// ReadArchive verifies the archive frame r holds and hands each record's id
// and policy body to restore. Undecodable input — truncated, bit-flipped,
// wrong kind, or a record restore rejects — yields an error wrapping
// frame.ErrCorrupt, never a panic; a restore error that wraps
// controlplane.ErrDuplicateDatabase keeps that sentinel instead, since an
// id collision is not stream damage.
func ReadArchive(r io.Reader, restore func(id int, snap io.Reader) error) error {
	b, err := frame.Read(frame.KindArchive, r)
	if err != nil {
		return fmt.Errorf("reading fleet archive: %w", err)
	}
	if len(b) < 4 {
		return fmt.Errorf("%w: archive body is %d bytes", frame.ErrCorrupt, len(b))
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	for i := uint32(0); i < count; i++ {
		if len(b) < 12 {
			return fmt.Errorf("%w: archive entry %d of %d truncated", frame.ErrCorrupt, i, count)
		}
		id := int(int64(binary.LittleEndian.Uint64(b[0:8])))
		size := uint64(binary.LittleEndian.Uint32(b[8:12]))
		if b = b[12:]; uint64(len(b)) < size {
			return fmt.Errorf("%w: database %d body truncated", frame.ErrCorrupt, id)
		}
		if err := restore(id, bytes.NewReader(b[:size])); err != nil {
			if errors.Is(err, controlplane.ErrDuplicateDatabase) {
				return fmt.Errorf("restoring database %d: %w", id, err)
			}
			return fmt.Errorf("%w: restoring database %d: %w", frame.ErrCorrupt, id, err)
		}
		b = b[size:]
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d bytes after the last archive entry", frame.ErrCorrupt, len(b))
	}
	return nil
}

// WriteTo archives the whole fleet, databases in id order, under a
// consistent quiesce: all shard locks are held for the duration of the
// write, so the image is a single point in time. It implements io.WriterTo.
func (rt *Runtime) WriteTo(w io.Writer) (int64, error) {
	for _, s := range rt.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range rt.shards {
			s.mu.Unlock()
		}
	}()

	var ids []int
	for _, s := range rt.shards {
		s.part.Range(func(id int, _ *policy.Machine) { ids = append(ids, id) })
	}
	sort.Ints(ids)
	return WriteArchive(w, ids, func(id int, w io.Writer) error {
		m, _ := rt.shardFor(id).part.Machine(id)
		_, err := m.WriteTo(w)
		return err
	})
}

// RestoreDB adds one snapshotted database (policy wire format) to the
// fleet through its shard's Partition.Restore. The returned wakeAt is
// non-zero when the database was logically paused and the host must deliver
// a Wake at (or after) that time.
func (rt *Runtime) RestoreDB(id int, r io.Reader) (wakeAt int64, err error) {
	s := rt.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	return s.part.Restore(id, r)
}

// PendingWake pairs a restored database with the wake-up its host must
// schedule, in epoch seconds.
type PendingWake struct {
	ID     int
	WakeAt int64
}

// RestoreArchive loads a whole fleet archive into the runtime, distributing
// databases to their owning shards. It returns the wake-ups the host must
// schedule.
func (rt *Runtime) RestoreArchive(r io.Reader) ([]PendingWake, error) {
	var wakes []PendingWake
	err := ReadArchive(r, func(id int, snap io.Reader) error {
		wakeAt, err := rt.RestoreDB(id, snap)
		if err == nil && wakeAt > 0 {
			wakes = append(wakes, PendingWake{ID: id, WakeAt: wakeAt})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return wakes, nil
}
