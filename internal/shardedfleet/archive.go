package shardedfleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"prorp/internal/policy"
)

// The PRF1 fleet archive is the one wire format a fleet writes and reads
// (the root package's reference Fleet, a test oracle, goes through
// WriteArchive and ReadArchive too, so its archives are byte-identical):
//
//	magic  uint32 'PRF1'
//	count  uint32
//	count x { id int64, size uint32, database snapshot (policy wire format) }
const archiveMagic = 0x50524631 // "PRF1"

// WriteArchive writes a PRF1 archive holding one record per id, in the
// order given; snapshot must write database id's policy wire image.
func WriteArchive(w io.Writer, ids []int, snapshot func(id int, w io.Writer) error) (int64, error) {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], archiveMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(ids)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	written := int64(len(hdr))

	var snap bytes.Buffer
	for _, id := range ids {
		snap.Reset()
		if err := snapshot(id, &snap); err != nil {
			return written, err
		}
		var rec [12]byte
		binary.LittleEndian.PutUint64(rec[0:8], uint64(int64(id)))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(snap.Len()))
		if _, err := bw.Write(rec[:]); err != nil {
			return written, err
		}
		written += int64(len(rec))
		n, err := bw.Write(snap.Bytes())
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadArchive decodes a PRF1 archive, handing each record's id and
// size-limited snapshot to restore. Undecodable input — truncated,
// bit-flipped, wrong format, or a record restore rejects — yields an error
// wrapping ErrCorruptArchive, never a panic; a restore error that wraps
// ErrDuplicateDatabase keeps that sentinel instead, since an id collision
// is not stream damage.
func ReadArchive(r io.Reader, restore func(id int, snap io.Reader) error) error {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: reading header: %w", ErrCorruptArchive, err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != archiveMagic {
		return fmt.Errorf("%w: bad magic %#x", ErrCorruptArchive, got)
	}
	count := binary.LittleEndian.Uint32(hdr[4:8])

	for i := uint32(0); i < count; i++ {
		var rec [12]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("%w: reading entry %d of %d: %w", ErrCorruptArchive, i, count, err)
		}
		id := int(int64(binary.LittleEndian.Uint64(rec[0:8])))
		size := binary.LittleEndian.Uint32(rec[8:12])
		if err := restore(id, io.LimitReader(br, int64(size))); err != nil {
			if errors.Is(err, ErrDuplicateDatabase) {
				return fmt.Errorf("restoring database %d: %w", id, err)
			}
			return fmt.Errorf("%w: restoring database %d: %w", ErrCorruptArchive, id, err)
		}
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
		for id := range s.dbs {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return WriteArchive(w, ids, func(id int, w io.Writer) error {
		_, err := rt.shardFor(id).dbs[id].WriteTo(w)
		return err
	})
}

// RestoreDB adds one snapshotted database (policy wire format) to the
// fleet, re-registering its control-plane metadata. The returned wakeAt is
// non-zero when the database was logically paused and the host must deliver
// a Wake at (or after) that time.
func (rt *Runtime) RestoreDB(id int, r io.Reader) (wakeAt int64, err error) {
	s := rt.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.dbs[id]; exists {
		return 0, fmt.Errorf("%w: %d", ErrDuplicateDatabase, id)
	}
	m, err := policy.Restore(rt.cfg.Policy, r)
	if err != nil {
		return 0, err
	}
	s.dbs[id] = m
	if m.State() == policy.PhysicallyPaused && rt.cfg.Policy.Mode == policy.Proactive {
		s.meta.SetPaused(id, m.NextActivity().Start)
		s.publish()
	}
	return m.RestoredTimer(), nil
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
