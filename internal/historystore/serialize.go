package historystore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Serialization backs the paper's durability requirements (Section 3.3):
// the history must survive database moves across nodes and be covered by
// backup/restore. It is the innermost body of a database's policy image
// and carries no magic or checksum of its own (the enclosing
// internal/frame frame verifies it): a count followed by fixed-width
// tuples, little-endian:
//
//	count   uint32  number of tuples
//	tuples  count x { time_snapshot int64, event_type uint8 }

const (
	headerSize = 4
	recordSize = 9
)

// WriteTo serializes the store. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(s.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	written := int64(headerSize)
	var rec [recordSize]byte
	var err error
	s.idx.Ascend(-1<<63, 1<<63-1, func(k int64, v byte) bool {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(k))
		rec[8] = v
		if _, werr := bw.Write(rec[:]); werr != nil {
			err = werr
			return false
		}
		written += recordSize
		return true
	})
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// ReadFrom restores a store serialized by WriteTo, replacing the current
// contents. r must end where the tuples do: a trailing byte is damage. It
// implements io.ReaderFrom.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("historystore: reading header: %w", err)
	}
	count := binary.LittleEndian.Uint32(hdr[:])

	fresh := New()
	read := int64(headerSize)
	var rec [recordSize]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return read, fmt.Errorf("historystore: reading tuple %d of %d: %w", i, count, err)
		}
		read += recordSize
		ts := int64(binary.LittleEndian.Uint64(rec[0:8]))
		typ := rec[8]
		if typ != EventStart && typ != EventEnd {
			return read, fmt.Errorf("historystore: tuple %d has invalid event type %d", i, typ)
		}
		if !fresh.Insert(ts, typ) {
			return read, fmt.Errorf("historystore: duplicate time_snapshot %d", ts)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return read, fmt.Errorf("historystore: trailing bytes after %d tuples", count)
	}
	s.idx = fresh.idx
	return read, nil
}

// ViewRow is one row of the customer-facing materialized view described in
// Section 5: both columns converted to human-readable form.
type ViewRow struct {
	Time time.Time
	Kind string // "activity start" or "activity end"
}

// View renders the history as the read-only customer view, newest last.
func (s *Store) View() []ViewRow {
	rows := make([]ViewRow, 0, s.Len())
	s.idx.Ascend(-1<<63, 1<<63-1, func(k int64, v byte) bool {
		kind := "activity end"
		if v == EventStart {
			kind = "activity start"
		}
		rows = append(rows, ViewRow{Time: time.Unix(k, 0).UTC(), Kind: kind})
		return true
	})
	return rows
}
