package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"

	"prorp/internal/faults"
)

// Replication streaming: a cursor-addressed tailing reader over the
// segment files, used by the primary side of internal/repl to serve
// GET /v1/repl/stream. The reader never parses past the durable prefix of
// the active segment (the poisoned-tail invariant: bytes at or beyond a
// poison offset were never acknowledged and must never be shipped), and it
// skips torn sealed tails exactly like Replay does — a follower therefore
// receives precisely the acknowledged record stream.

// SegmentDataStart is the offset of the first frame in a segment — the
// byte right after the segment header. A cursor pointing at a segment it has
// not read yet starts here.
const SegmentDataStart = int64(segHeaderSize)

// FrameSize is the on-disk size of one record frame. Every record frame is
// the same size (length prefix + CRC + fixed payload), which is what lets
// replication lag be counted in records from a byte gap.
const FrameSize = int64(frameOverhead + recordPayload)

// Cursor addresses a position in the journal's record stream: a segment
// sequence number and a byte offset within that segment's file. The zero
// Cursor means "from the beginning of retained history".
type Cursor struct {
	Seg uint64
	Off int64
}

// String renders the wire form, "<segment>:<offset>".
func (c Cursor) String() string {
	return strconv.FormatUint(c.Seg, 10) + ":" + strconv.FormatInt(c.Off, 10)
}

// IsZero reports whether the cursor is the from-the-beginning sentinel.
func (c Cursor) IsZero() bool { return c.Seg == 0 }

// Before orders cursors within one journal lineage.
func (c Cursor) Before(o Cursor) bool {
	if c.Seg != o.Seg {
		return c.Seg < o.Seg
	}
	return c.Off < o.Off
}

// ParseCursor parses the wire form produced by Cursor.String. The empty
// string and "0" both parse to the zero cursor, so ?after= is optional.
func ParseCursor(s string) (Cursor, error) {
	if s == "" || s == "0" {
		return Cursor{}, nil
	}
	seg, off, ok := strings.Cut(s, ":")
	if !ok {
		return Cursor{}, fmt.Errorf("wal: bad cursor %q (want <segment>:<offset>)", s)
	}
	sv, err := strconv.ParseUint(seg, 10, 64)
	if err != nil {
		return Cursor{}, fmt.Errorf("wal: bad cursor segment %q", seg)
	}
	ov, err := strconv.ParseInt(off, 10, 64)
	if err != nil || ov < 0 {
		return Cursor{}, fmt.Errorf("wal: bad cursor offset %q", off)
	}
	return Cursor{Seg: sv, Off: ov}, nil
}

// ErrCursorCompacted means the cursor points below the earliest retained
// segment: the records it wants were compacted away, so the follower must
// resync from a snapshot instead of the stream.
var ErrCursorCompacted = errors.New("wal: cursor below retained history (resync from snapshot)")

// ErrCursorAhead means the cursor points past the durable end of the
// journal. A follower sees this after the primary it was tracking lost its
// lineage (restore from an older snapshot); the fix is the same as
// compaction — resync.
var ErrCursorAhead = errors.New("wal: cursor ahead of durable history (resync from snapshot)")

// shippableEnd is the end of seg's shippable prefix. Only acknowledged
// bytes ship: under FsyncOff an append is acknowledged as soon as it is
// written (size), otherwise when an fsync covers it (syncedTo); a poison
// offset caps either — frames at or beyond it were never acknowledged and
// never will be. Caller holds j.mu.
func (j *Journal) shippableEnd(seg *segment) int64 {
	end := seg.syncedTo
	if j.cfg.Fsync == FsyncOff {
		end = seg.size
	}
	if seg.poisoned && seg.poisonedAt < end {
		end = seg.poisonedAt
	}
	return max(end, segHeaderSize)
}

// streamEnd reports the active segment's sequence, the end of its shippable
// prefix, and where the segment sealed by the latest rotation ended.
func (j *Journal) streamEnd() (activeSeq uint64, durable int64, sealed Cursor) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.active.seq, j.shippableEnd(j.active), j.lastSealed
}

// DurableCursor reports the journal's durable stream end: the position a
// fully caught-up follower would reach. It is the primary's "replicated
// WAL cursor" for election purposes — a vote comparison between a
// candidate's follower cursor and a voting primary's own log.
func (j *Journal) DurableCursor() Cursor {
	seq, durable, _ := j.streamEnd()
	return Cursor{Seg: seq, Off: durable}
}

// ReadAfter serves one batch of the record stream starting at cursor c:
// intact frames from a single segment, at most maxBytes of them (at least
// one frame when any is available). It returns the frame bytes, the
// effective start cursor (c normalized — the zero cursor resolves to the
// start of retained history, and torn or compacted segments are skipped),
// and the cursor addressing the byte after the last returned frame.
//
// An empty batch with a nil error means the caller is caught up. Torn
// sealed tails are skipped silently (those bytes were never acknowledged);
// ErrCursorCompacted and ErrCursorAhead tell the caller to resync.
func (j *Journal) ReadAfter(c Cursor, maxBytes int) (data []byte, start, next Cursor, err error) {
	if maxBytes < int(FrameSize) {
		maxBytes = 256 << 10
	}
	// Each iteration either returns or hops the cursor to a later segment,
	// so the loop is bounded by the retained segment count; the cap only
	// guards against a directory mutating faster than we can scan it.
	for hop := 0; hop < 1<<16; hop++ {
		activeSeq, durable, sealed := j.streamEnd()
		if !c.IsZero() && c.Off < segHeaderSize {
			c.Off = segHeaderSize
		}
		if !c.IsZero() && c == sealed {
			// A follower that was caught up when the journal last rotated:
			// it holds all of that segment, and the active one is its
			// successor. Known without the file, so it holds whether or not
			// the snapshot behind the rotation has compacted it yet.
			c = Cursor{Seg: activeSeq, Off: segHeaderSize}
		}
		if c.Seg > activeSeq || (c.Seg == activeSeq && c.Off > durable) {
			return nil, c, c, ErrCursorAhead
		}
		if c.Seg == activeSeq {
			// The tailing poll, one per acknowledged write: answered from the
			// journal's own state and the open segment, no directory listing.
			if c.Off == durable {
				return nil, c, c, nil // caught up
			}
			// Read only what this batch can ship, so a poll costs the same
			// however long the segment has grown.
			want := min(durable-c.Off, int64(maxBytes))
			body, err := j.readSegment(segPath(j.cfg.Dir, c.Seg), c.Off, want)
			if err != nil {
				return nil, c, c, err
			}
			if int64(len(body)) < want {
				// The file is shorter than the acknowledged prefix — read
				// raced a crash. Refuse rather than ship short.
				return nil, c, c, fmt.Errorf("wal: active segment %d is %d bytes, durable prefix is %d",
					c.Seg, c.Off+int64(len(body)), durable)
			}
			n := takeFrames(body, maxBytes)
			if n == 0 {
				// Damage inside the acknowledged prefix: not crash debris
				// but genuine corruption; surface it instead of skipping.
				return nil, c, c, fmt.Errorf("wal: active segment %d unreadable at offset %d", c.Seg, c.Off)
			}
			return body[:n], c, Cursor{Seg: c.Seg, Off: c.Off + n}, nil
		}

		// The zero cursor or a sealed segment: both need to know which
		// segments are retained.
		seqs, err := scanDir(j.cfg.FS, j.cfg.Dir)
		if err != nil {
			return nil, c, c, err
		}
		if c.IsZero() {
			first := activeSeq
			if len(seqs) > 0 && seqs[0] < first {
				first = seqs[0]
			}
			if first > 1 {
				// Retained history does not reach back to genesis: a
				// from-the-beginning reader would silently miss records.
				return nil, c, c, ErrCursorCompacted
			}
			c = Cursor{Seg: first, Off: segHeaderSize}
			continue
		}
		if len(seqs) > 0 && c.Seg < seqs[0] {
			return nil, c, c, ErrCursorCompacted
		}

		// Work out where the stream continues if this segment is exhausted
		// or torn at the cursor.
		nextSeq := activeSeq
		for _, s := range seqs {
			if s > c.Seg && s < nextSeq {
				nextSeq = s
			}
		}
		// A sealed segment is read like the active one: the header and the
		// batch, not the (up to SegmentBytes) file. If a compaction removes
		// the file under either read, nobody can say any more whether
		// records remained past the cursor, and hopping on would silently
		// drop them from the follower: that is ErrCursorCompacted.
		path := segPath(j.cfg.Dir, c.Seg)
		hdr, err := j.readSegment(path, 0, segHeaderSize)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, c, c, ErrCursorCompacted
		}
		if err != nil {
			return nil, c, c, err
		}
		if !headerOK(hdr, c.Seg) {
			// Damaged header: replay discards the whole segment, so the
			// stream does too.
			c = Cursor{Seg: nextSeq, Off: segHeaderSize}
			continue
		}
		body, err := j.readSegment(path, c.Off, int64(maxBytes))
		if errors.Is(err, fs.ErrNotExist) {
			return nil, c, c, ErrCursorCompacted
		}
		if err != nil {
			return nil, c, c, err
		}
		n := takeFrames(body, maxBytes)
		if n == 0 {
			// Clean end of segment, or a torn tail (never-acknowledged
			// bytes). Either way the stream continues in the next segment.
			c = Cursor{Seg: nextSeq, Off: segHeaderSize}
			continue
		}
		return body[:n], c, Cursor{Seg: c.Seg, Off: c.Off + n}, nil
	}
	return nil, c, c, errors.New("wal: cursor chase did not converge")
}

// takeFrames reports how many bytes of data form a prefix of intact frames
// no larger than maxBytes.
func takeFrames(data []byte, maxBytes int) int64 {
	var n int64
	for {
		_, size, ok := nextFrame(data[n:])
		if !ok || n+size > int64(maxBytes) {
			return n
		}
		n += size
	}
}

// ScanStream walks a buffer of frames — a segment's record area, or a
// batch served by ReadAfter — calling apply for each record. It stops at
// the first bad frame (torn=true) or the first apply error; consumed is the
// bytes of frames whose records were applied, so callers can advance a
// cursor by exactly that much. A clean scan consumes all of data.
func ScanStream(data []byte, apply func(Record) error) (consumed int64, torn bool, err error) {
	for consumed < int64(len(data)) {
		rec, size, ok := nextFrame(data[consumed:])
		if !ok {
			return consumed, true, nil
		}
		if err := apply(rec); err != nil {
			return consumed, false, err
		}
		consumed += size
	}
	return consumed, false, nil
}

// TailGapRecords reports how many acknowledged records lie between cursor
// c and the journal's durable end — the primary-side view of a follower's
// replication lag. Record frames are fixed-size, so the byte gap divides
// exactly. Unreadable history counts as zero lag rather than failing: the
// gauge must never take the stream down.
func (j *Journal) TailGapRecords(c Cursor) int64 {
	activeSeq, durable, _ := j.streamEnd()
	if c.Seg == activeSeq {
		// The tailing follower: the gap is inside the active segment, and
		// the journal knows its end without listing the directory.
		return max(durable-max(c.Off, segHeaderSize), 0) / FrameSize
	}
	if c.Seg > activeSeq {
		return 0
	}
	seqs, err := scanDir(j.cfg.FS, j.cfg.Dir)
	if err != nil {
		return 0
	}
	if c.IsZero() {
		c.Seg = activeSeq
		if len(seqs) > 0 && seqs[0] < c.Seg {
			c.Seg = seqs[0]
		}
		c.Off = segHeaderSize
	}
	var gap int64
	for _, s := range seqs {
		if s < c.Seg || s >= activeSeq {
			continue
		}
		fi, err := j.cfg.FS.Stat(segPath(j.cfg.Dir, s))
		if err != nil {
			continue
		}
		start := int64(segHeaderSize)
		if s == c.Seg && c.Off > start {
			start = c.Off
		}
		if fi.Size() > start {
			gap += fi.Size() - start
		}
	}
	// Past the early return the cursor sits below the active segment, all of
	// whose shippable prefix is therefore still ahead of it.
	gap += durable - segHeaderSize
	return gap / FrameSize
}

// SegmentReport is one segment's verification result from InspectDir.
type SegmentReport struct {
	Seq       uint64
	Path      string
	SizeBytes int64
	HeaderOK  bool
	Records   int   // intact, CRC-verified records
	Torn      bool  // a bad frame cut the scan short
	TornAt    int64 // file offset of the first bad frame (when Torn)
	Truncated int64 // bytes after the tear (or the whole file on a bad header)
	Sample    []Record
}

// InspectDir reads and CRC-verifies every segment in a journal directory,
// without opening a Journal — the read-only path behind
// `prorp-inspect wal`. sampleN caps how many leading records are decoded
// into each report's Sample (0 = none).
func InspectDir(fsys faults.FS, dir string, sampleN int) ([]SegmentReport, error) {
	if fsys == nil {
		fsys = faults.OS
	}
	seqs, err := scanDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	reports := make([]SegmentReport, 0, len(seqs))
	for _, seq := range seqs {
		path := segPath(dir, seq)
		rep := SegmentReport{Seq: seq, Path: path}
		f, err := fsys.Open(path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return reports, fmt.Errorf("wal: reading segment %d: %w", seq, err)
		}
		data, err := io.ReadAll(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return reports, fmt.Errorf("wal: reading segment %d: %w", seq, err)
		}
		rep.SizeBytes = int64(len(data))
		if !headerOK(data, seq) {
			rep.Torn = true
			rep.Truncated = int64(len(data))
			reports = append(reports, rep)
			continue
		}
		rep.HeaderOK = true
		body := data[segHeaderSize:]
		consumed, torn, _ := ScanStream(body, func(rec Record) error {
			rep.Records++
			if rep.Records <= sampleN {
				rep.Sample = append(rep.Sample, rec)
			}
			return nil
		})
		if torn {
			rep.Torn = true
			rep.TornAt = int64(segHeaderSize) + consumed
			rep.Truncated = int64(len(body)) - consumed
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
