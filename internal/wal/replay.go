package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"

	"prorp/internal/faults"
	"prorp/internal/frame"
)

// appendFrame appends one record to dst as a length-prefixed,
// CRC-32C-guarded frame.
func appendFrame(dst []byte, rec Record) []byte {
	var f [frameOverhead + recordPayload]byte
	payload := f[frameOverhead:]
	payload[0] = byte(rec.Type)
	binary.LittleEndian.PutUint64(payload[1:9], uint64(rec.ID))
	binary.LittleEndian.PutUint64(payload[9:17], uint64(rec.Unix))
	binary.LittleEndian.PutUint32(f[0:4], recordPayload)
	binary.LittleEndian.PutUint32(f[4:8], frame.Sum(payload))
	return append(dst, f[:]...)
}

// decodeRecord parses a verified frame payload. It rejects payloads whose
// checksum matched but whose contents are not a record (wrong size, unknown
// type) — defense against a frame of a future format version.
func decodeRecord(payload []byte) (Record, bool) {
	if len(payload) != recordPayload {
		return Record{}, false
	}
	rec := Record{
		Type: RecordType(payload[0]),
		ID:   int64(binary.LittleEndian.Uint64(payload[1:9])),
		Unix: int64(binary.LittleEndian.Uint64(payload[9:17])),
	}
	if !rec.Type.valid() {
		return Record{}, false
	}
	return rec, true
}

// nextFrame decodes the record frame at the front of data and reports its
// size. ok is false for a bad frame — truncated length prefix, oversized
// length, payload running past the buffer, checksum mismatch, or
// undecodable payload.
func nextFrame(data []byte) (rec Record, size int64, ok bool) {
	if len(data) < frameOverhead {
		return Record{}, 0, false
	}
	length := int(binary.LittleEndian.Uint32(data[0:4]))
	if length > maxFramePayload || len(data) < frameOverhead+length {
		return Record{}, 0, false
	}
	payload := data[frameOverhead : frameOverhead+length]
	if frame.Sum(payload) != binary.LittleEndian.Uint32(data[4:8]) {
		return Record{}, 0, false
	}
	rec, ok = decodeRecord(payload)
	return rec, int64(frameOverhead + length), ok
}

// Replay applies every intact record in segments with seq >= since, in
// sequence order, oldest first. It must run before the first Append (the
// active segment is excluded). Damage never fails a replay:
//
//   - A bad frame cuts its segment short at the tear; later bytes in that
//     segment are discarded and counted, never parsed. Records past a tear
//     were never acknowledged (a failed append rotates the segment), so
//     nothing acknowledged is lost.
//   - A segment with a damaged header is counted as torn in full.
//
// Only I/O errors (after retries) fail a replay — an unreadable disk is a
// verdict the operator must see, unlike a torn tail which is expected
// crash debris.
func (j *Journal) Replay(since uint64, apply func(Record)) (ReplayStats, error) {
	if j.replayHist != nil {
		defer j.replayHist.ObserveSince(time.Now())
	}
	j.mu.Lock()
	activeSeq := j.active.seq
	j.mu.Unlock()

	seqs, err := scanDir(j.cfg.FS, j.cfg.Dir)
	if err != nil {
		return ReplayStats{}, err
	}
	var stats ReplayStats
	for _, seq := range seqs {
		if seq < since || seq >= activeSeq {
			continue
		}
		data, err := j.readSegment(segPath(j.cfg.Dir, seq), 0, -1)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // compacted between scan and read
			}
			return stats, fmt.Errorf("wal: reading segment %d: %w", seq, err)
		}
		stats.SegmentsScanned++
		if !headerOK(data, seq) {
			j.cfg.Logf("wal: segment %d header damaged; discarding %d bytes", seq, len(data))
			stats.TornSegments++
			stats.TruncatedBytes += int64(len(data))
			continue
		}
		body := data[segHeaderSize:]
		consumed, torn, _ := ScanStream(body, func(rec Record) error {
			stats.Records++
			apply(rec)
			return nil
		})
		if torn {
			discarded := int64(len(body)) - consumed
			j.cfg.Logf("wal: segment %d torn at offset %d; discarding %d bytes",
				seq, segHeaderSize+consumed, discarded)
			stats.TornSegments++
			stats.TruncatedBytes += discarded
		}
	}
	return stats, nil
}

// readSegment reads a segment file through the FS seam — from byte off, at
// most n bytes (n < 0 = to the end) — retrying transient errors per the
// journal's backoff.
func (j *Journal) readSegment(path string, off, n int64) ([]byte, error) {
	var data []byte
	var notExist error
	_, err := faults.Retry(j.cfg.Clock, j.cfg.Backoff, func() error {
		f, err := j.cfg.FS.Open(path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				notExist = err // missing is a verdict, not a transient
				return nil
			}
			return err
		}
		notExist = nil
		var r io.Reader = f
		if n >= 0 {
			r = io.LimitReader(f, n)
		}
		if _, err = f.Seek(off, io.SeekStart); err == nil {
			data, err = io.ReadAll(r)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if notExist != nil {
		return nil, notExist
	}
	return data, err
}
