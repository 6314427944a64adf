// Package wal is a crash-durable, segmented write-ahead event journal for
// the serving runtime. Every fleet mutation (create, delete, login, logout)
// is recorded here before it is acknowledged, so a crash between snapshots
// loses no acknowledged activity history — the Algorithm 4 predictor's
// per-day windows survive kill -9 intact.
//
// On-disk layout: a directory of segment files named wal-<seq>.seg, each
//
//	header:  one internal/frame KindSegment frame whose body is the segment seq (u64 LE)
//	records: frame*
//	frame:   payload length (u32 LE) | CRC-32C(payload) (u32 LE) | payload
//	payload: record type (u8) | database id (i64 LE) | unix seconds (i64 LE)
//
// Segments rotate at a configurable size, on demand (snapshot boundaries),
// and whenever a write or fsync fails — a torn frame is never appended
// after, so damage is always confined to a segment's tail. Replay walks the
// segments in sequence order, verifies every frame, and truncates at the
// first bad frame: a torn tail costs only the unacknowledged suffix, never
// a refused boot.
//
// Durability is governed by an fsync policy:
//
//   - FsyncAlways: Append returns only after the record is fsynced.
//   - FsyncBatch: group commit — appends arriving within BatchInterval are
//     made durable by one shared fsync; every Append still blocks until
//     the fsync covering its record completes, so acknowledged means
//     durable, at a fraction of the fsync rate.
//   - FsyncOff: Append returns after the write; durability rides on the
//     kernel. For benchmarks and bulk loads only.
//
// Each successful snapshot compacts the journal: segments wholly covered
// by the snapshot (seq below the boundary returned by Rotate at snapshot
// time) are deleted. The compaction invariant: a segment is deleted only
// after a snapshot containing every event in it is durably on disk.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prorp/internal/faults"
	"prorp/internal/frame"
	"prorp/internal/obs"
)

// FsyncPolicy selects when Append makes records durable.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before every acknowledgment.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch group-commits: one fsync covers every record that arrived
	// within BatchInterval, and each Append blocks until its record is
	// covered.
	FsyncBatch
	// FsyncOff never fsyncs on append (segment seals still flush).
	FsyncOff
)

// ParsePolicy maps the -wal-fsync flag values onto a policy.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch", "group":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, batch, or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// RecordType tags the fleet mutation a record carries.
type RecordType uint8

const (
	RecordCreate RecordType = 1
	RecordDelete RecordType = 2
	RecordLogin  RecordType = 3
	RecordLogout RecordType = 4
)

func (t RecordType) valid() bool { return t >= RecordCreate && t <= RecordLogout }

func (t RecordType) String() string {
	switch t {
	case RecordCreate:
		return "create"
	case RecordDelete:
		return "delete"
	case RecordLogin:
		return "login"
	case RecordLogout:
		return "logout"
	}
	return fmt.Sprintf("RecordType(%d)", int(t))
}

// Record is one journaled fleet mutation.
type Record struct {
	Type RecordType
	ID   int64
	Unix int64 // event time, epoch seconds
}

// Config assembles a Journal.
type Config struct {
	// Dir is the journal directory, created if missing.
	Dir string
	// SegmentBytes rotates the active segment once it has reached this size
	// (default 4 MiB, minimum 4 KiB). The check runs before an append, never
	// inside one, so a segment exceeds it by at most one AppendBatch.
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// BatchInterval is the group-commit window under FsyncBatch: the fsync
	// leader waits this long for more appends before syncing (default 2ms).
	BatchInterval time.Duration
	// FS is the filesystem seam (default the real filesystem).
	FS faults.FS
	// Clock serves the group-commit wait (default wall clock).
	Clock faults.Clock
	// Backoff retries transient read errors during Replay and CompactBefore
	// (zero value = single attempt).
	Backoff faults.Backoff
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives the journal's latency histograms
	// (prorp_wal_append_duration_seconds, prorp_wal_fsync_duration_seconds,
	// prorp_wal_replay_duration_seconds). Counters stay on Metrics either
	// way; a nil registry costs the journal nothing.
	Obs *obs.Registry
}

// Metrics is a point-in-time snapshot of the journal's counters.
type Metrics struct {
	Appends       uint64 // records appended (acknowledged)
	BytesAppended uint64
	Fsyncs        uint64
	Rotations     uint64
	Compacted     uint64 // segments deleted by compaction
}

// ReplayStats reports what one Replay pass found.
type ReplayStats struct {
	SegmentsScanned int
	Records         int   // intact records handed to apply
	TornSegments    int   // segments cut short at a bad frame
	TruncatedBytes  int64 // bytes discarded after bad frames
}

// ErrClosed is returned by Append after Close or Kill.
var ErrClosed = errors.New("wal: journal closed")

const (
	segHeaderSize       = frame.HeaderSize + 8 // frame header + seq u64
	frameOverhead       = 8                    // length u32 + crc u32
	recordPayload       = 17                   // type u8 + id i64 + unix i64
	maxFramePayload     = 1 << 16              // sanity cap: larger lengths are damage, not data
	defaultSegmentBytes = 4 << 20
	minSegmentBytes     = 4 << 10
)

// segment is the mutable state of one open (active) segment file. Waiters
// hold a pointer to the segment their record went into, so rotation can't
// confuse offsets across files.
type segment struct {
	f        faults.File
	seq      uint64
	path     string
	size     int64 // bytes written, header included
	syncedTo int64 // prefix known durable
	syncing  bool  // an fsync leader is in flight
	sealed   bool  // rotated away; no further writes or syncs

	// A segment is poisoned by a failed or torn write, or a failed fsync:
	// frames at or beyond poisonedAt are not durable and never will be.
	// Frames before poisonedAt can still be fsynced.
	poisoned   bool
	poisonedAt int64
	poisonErr  error
}

// Journal is a segmented write-ahead journal. All methods are safe for
// concurrent use.
type Journal struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	active *segment
	closed bool
	// tail is the channel TailChanged last handed out, nil while nobody
	// holds one; wakeLocked closes it.
	tail chan struct{}
	// lastSealed is the shippable end of the segment the latest rotation
	// sealed, whose successor is the active segment (zero before the first
	// rotation): a stream cursor equal to it has nothing left behind it.
	lastSealed Cursor

	appends       atomic.Uint64
	bytesAppended atomic.Uint64
	fsyncs        atomic.Uint64
	rotations     atomic.Uint64
	compacted     atomic.Uint64

	// Latency histograms; nil (no-op) when Config.Obs is nil.
	appendHist *obs.Histogram // Append call, including the durability wait
	fsyncHist  *obs.Histogram // one fsync system call
	replayHist *obs.Histogram // one full Replay pass
}

// Open scans dir for existing segments and opens a fresh active segment
// after the highest sequence found. Existing segments are sealed history:
// call Replay before the first Append to apply them.
func Open(cfg Config) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, errors.New("wal: no directory configured")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegmentBytes
	}
	if cfg.SegmentBytes < minSegmentBytes {
		cfg.SegmentBytes = minSegmentBytes
	}
	if cfg.BatchInterval <= 0 {
		cfg.BatchInterval = 2 * time.Millisecond
	}
	if cfg.FS == nil {
		cfg.FS = faults.OS
	}
	if cfg.Clock == nil {
		cfg.Clock = faults.WallClock{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", cfg.Dir, err)
	}
	seqs, err := scanDir(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{cfg: cfg}
	j.appendHist = cfg.Obs.Histogram("prorp_wal_append_duration_seconds",
		"Journal append latency, including the durability wait.", obs.LatencyBuckets)
	j.fsyncHist = cfg.Obs.Histogram("prorp_wal_fsync_duration_seconds",
		"Duration of one journal fsync.", obs.LatencyBuckets)
	j.replayHist = cfg.Obs.Histogram("prorp_wal_replay_duration_seconds",
		"Duration of one boot-time journal replay pass.", obs.LatencyBuckets)
	j.cond = sync.NewCond(&j.mu)
	next := uint64(1)
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return j, nil
}

// scanDir lists the segment sequence numbers present in dir, ascending.
func scanDir(fsys faults.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scanning %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.seg", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	return seqs, nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seq))
}

// openSegmentLocked creates and headers a fresh segment at seq (bumping
// past leftover files from interrupted rotations), makes its directory entry
// durable unless fsync is off, and makes it active.
func (j *Journal) openSegmentLocked(seq uint64) error {
	var lastErr error
	for attempt := 0; attempt < 4; attempt, seq = attempt+1, seq+1 {
		path := segPath(j.cfg.Dir, seq)
		f, err := j.cfg.FS.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
		if err != nil {
			if errors.Is(err, fs.ErrExist) {
				continue // leftover file; take the next seq
			}
			lastErr = err
			continue
		}
		hdr := make([]byte, segHeaderSize)
		binary.LittleEndian.PutUint64(hdr[frame.HeaderSize:], seq)
		n, err := f.Write(frame.Seal(frame.KindSegment, hdr))
		if err == nil && n < len(hdr) {
			err = fmt.Errorf("wal: short header write (%d of %d bytes)", n, len(hdr))
		}
		// A record's fsync does not make the segment's directory entry
		// durable; one directory fsync here does, before the segment's
		// first ack, and no append pays it.
		if err == nil && j.cfg.Fsync != FsyncOff {
			err = j.cfg.FS.SyncDir(j.cfg.Dir)
		}
		if err != nil {
			f.Close()
			j.cfg.FS.Remove(path)
			lastErr = err
			continue
		}
		j.active = &segment{f: f, seq: seq, path: path, size: segHeaderSize}
		return nil
	}
	return fmt.Errorf("wal: opening segment %d: %w", seq, lastErr)
}

// sealLocked retires the active segment: a final fsync covering whatever
// the group-commit loop has not reached yet (skipped under FsyncOff and on
// poisoned tails), then close. Waiters still blocked on the segment are
// released — successfully when the seal fsync covered their record.
func (j *Journal) sealLocked(seg *segment) {
	if seg == nil || seg.sealed {
		return
	}
	if !seg.poisoned && seg.syncedTo < seg.size && j.cfg.Fsync != FsyncOff {
		t0 := time.Now()
		if err := seg.f.Sync(); err != nil {
			j.poisonLocked(seg, seg.syncedTo, err)
		} else {
			j.fsyncHist.ObserveSince(t0)
			seg.syncedTo = seg.size
			j.fsyncs.Add(1)
		}
	}
	seg.f.Close()
	seg.sealed = true
	j.wakeLocked()
}

// wakeLocked announces that the shippable end, the active segment or the
// journal's life cycle changed: blocked appenders re-check their segment,
// and the channel a stream reader took from TailChanged is closed.
func (j *Journal) wakeLocked() {
	j.cond.Broadcast()
	if j.tail != nil {
		close(j.tail)
		j.tail = nil
	}
}

// TailChanged returns a channel that is closed the next time the record
// stream may have more to give: a record became shippable (an fsync covered
// it, or it was written under FsyncOff), the active segment was sealed or
// poisoned, or the journal was closed or killed. A stream reader that wants
// to wait for the next record takes the channel BEFORE it calls ReadAfter
// and waits on it only when the read came back empty — a change between the
// two closes the channel already in hand, so no wake-up is lost. On a closed
// journal the channel is closed already; a caller that re-arms in a loop
// must notice the shutdown itself.
func (j *Journal) TailChanged() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		ch := make(chan struct{})
		close(ch) // nothing would ever wake it
		return ch
	}
	if j.tail == nil {
		j.tail = make(chan struct{})
	}
	return j.tail
}

// poisonLocked marks frames at or beyond offset as never-durable.
func (j *Journal) poisonLocked(seg *segment, offset int64, err error) {
	if !seg.poisoned || offset < seg.poisonedAt {
		seg.poisoned = true
		seg.poisonedAt = offset
		seg.poisonErr = err
		j.cfg.Logf("wal: segment %d poisoned at offset %d: %v", seg.seq, offset, err)
	}
	j.wakeLocked()
}

// Append journals one record: AppendBatch of one.
func (j *Journal) Append(rec Record) (Cursor, error) {
	return j.AppendBatch([]Record{rec})
}

// AppendBatch journals recs as consecutive frames in one segment — one
// write — and blocks until all of them are durable per the fsync policy — one
// durability wait — returning the cursor addressing the byte after the last
// record: the stream position a follower must reach to have replicated them
// (the input to Coverage.WaitCovered in quorum-acked mode). Rotation of a
// full or poisoned segment happens before the batch, never inside it. On any
// write or fsync failure the segment is poisoned at the batch's first byte
// and rotated before the next append, so a torn frame is always the last
// thing in its segment; NONE of the batch is durable and the caller must not
// acknowledge any of it (retry — the retry lands in a fresh segment). An
// empty batch is a no-op returning the zero cursor.
func (j *Journal) AppendBatch(recs []Record) (Cursor, error) {
	if len(recs) == 0 {
		return Cursor{}, nil
	}
	if j.appendHist != nil {
		defer j.appendHist.ObserveSince(time.Now())
	}
	frames := make([]byte, 0, len(recs)*int(FrameSize))
	for _, rec := range recs {
		if !rec.Type.valid() {
			return Cursor{}, fmt.Errorf("wal: invalid record type %d", rec.Type)
		}
		frames = appendFrame(frames, rec)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Cursor{}, ErrClosed
	}
	seg := j.active
	// Roll to a fresh segment when the active one is poisoned or full.
	if seg.poisoned || seg.size >= j.cfg.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return Cursor{}, err
		}
		seg = j.active
	}
	off := seg.size
	n, err := seg.f.Write(frames)
	if err != nil || n < len(frames) {
		seg.size = off + int64(n)
		if err == nil {
			err = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(frames))
		}
		j.poisonLocked(seg, off, err)
		return Cursor{}, err
	}
	seg.size = off + int64(len(frames))
	end := seg.size
	cur := Cursor{Seg: seg.seq, Off: end}

	if j.cfg.Fsync == FsyncOff {
		j.wakeLocked() // written is shippable here: no fsync will announce it
	} else {
		// Wait until an fsync covers the batch, leading one when nobody is.
		for seg.syncedTo < end {
			if seg.poisoned && end > seg.poisonedAt {
				return Cursor{}, seg.poisonErr
			}
			if seg.sealed {
				// Sealed without covering us and without poisoning: only
				// possible if the seal's fsync failed, which poisons. Guard
				// anyway.
				return Cursor{}, errors.New("wal: segment sealed before record was durable")
			}
			if !seg.syncing {
				j.leadSyncLocked(seg)
				continue
			}
			j.cond.Wait()
		}
	}
	j.appends.Add(uint64(len(recs)))
	j.bytesAppended.Add(uint64(len(frames)))
	return cur, nil
}

// leadSyncLocked elects the caller fsync leader for seg: under FsyncBatch
// it waits BatchInterval (lock released) so more appends can pile in, then
// issues one fsync covering everything written so far.
func (j *Journal) leadSyncLocked(seg *segment) {
	seg.syncing = true
	if j.cfg.Fsync == FsyncBatch {
		j.mu.Unlock()
		j.cfg.Clock.Sleep(j.cfg.BatchInterval)
		j.mu.Lock()
	}
	if seg.sealed {
		seg.syncing = false
		j.wakeLocked()
		return
	}
	target := seg.size
	if seg.poisoned && seg.poisonedAt < target {
		target = seg.poisonedAt // intact prefix is still syncable
	}
	if target <= seg.syncedTo {
		seg.syncing = false
		j.wakeLocked()
		return
	}
	f := seg.f
	j.mu.Unlock()
	t0 := time.Now()
	err := f.Sync()
	j.fsyncHist.ObserveSince(t0)
	j.mu.Lock()
	seg.syncing = false
	if err != nil {
		j.poisonLocked(seg, seg.syncedTo, err)
	} else {
		if target > seg.syncedTo {
			seg.syncedTo = target
		}
		j.fsyncs.Add(1)
	}
	j.wakeLocked()
}

// Rotate seals the active segment and opens the next one, returning the
// new active sequence number. Snapshot writers call it to establish a
// compaction boundary: every record appended before Rotate returns lives
// in a segment with seq below the returned value.
func (j *Journal) Rotate() (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if err := j.rotateLocked(); err != nil {
		return 0, err
	}
	return j.active.seq, nil
}

func (j *Journal) rotateLocked() error {
	old := j.active
	next := old.seq + 1
	j.sealLocked(old)
	j.lastSealed = Cursor{}
	if err := j.openSegmentLocked(next); err != nil {
		// No active segment — poison a placeholder so appends keep failing
		// loudly rather than panicking, and retry the open on next append.
		j.active = &segment{seq: old.seq, sealed: false, poisoned: true,
			poisonedAt: 0, poisonErr: err, f: old.f, path: old.path, size: j.cfg.SegmentBytes}
		return err
	}
	// Only a clean seal is remembered: where a poisoned segment (or the
	// placeholder above) ends is settled by reading its file, as before.
	if !old.poisoned {
		j.lastSealed = Cursor{Seg: old.seq, Off: j.shippableEnd(old)}
	}
	j.rotations.Add(1)
	return nil
}

// ActiveSeq reports the active segment's sequence number.
func (j *Journal) ActiveSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.active.seq
}

// ActiveSegment exposes the active segment's path and durable prefix
// length, for crash tests that damage the not-yet-fsynced tail the way a
// real power cut would.
func (j *Journal) ActiveSegment() (path string, durableBytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.active.path, j.active.syncedTo
}

// Metrics snapshots the journal's counters.
func (j *Journal) Metrics() Metrics {
	return Metrics{
		Appends:       j.appends.Load(),
		BytesAppended: j.bytesAppended.Load(),
		Fsyncs:        j.fsyncs.Load(),
		Rotations:     j.rotations.Load(),
		Compacted:     j.compacted.Load(),
	}
}

// CompactBefore deletes sealed segments with seq strictly below boundary.
// Safe only after a snapshot covering those segments is durable. The
// directory is rescanned, so segments orphaned by an interrupted earlier
// compaction are collected too. Returns the number of segments removed.
func (j *Journal) CompactBefore(boundary uint64) (int, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	activeSeq := j.active.seq
	j.mu.Unlock()
	if boundary > activeSeq {
		boundary = activeSeq
	}

	seqs, err := scanDir(j.cfg.FS, j.cfg.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	var errs []error
	for _, seq := range seqs {
		if seq >= boundary {
			break
		}
		if _, rerr := faults.Retry(j.cfg.Clock, j.cfg.Backoff, func() error {
			return j.cfg.FS.Remove(segPath(j.cfg.Dir, seq))
		}); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			// Leave it for the next compaction; replay skips it via the
			// snapshot boundary either way.
			errs = append(errs, fmt.Errorf("segment %d: %w", seq, rerr))
			continue
		}
		removed++
	}
	j.compacted.Add(uint64(removed))
	return removed, errors.Join(errs...)
}

// Close seals the active segment (final fsync unless FsyncOff) and shuts
// the journal down. Further Appends fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	seg := j.active
	j.sealLocked(seg)
	if seg.poisoned {
		return seg.poisonErr
	}
	return nil
}

// Kill abandons the journal without the final fsync — the crash path, for
// kill-replay tests. Records not yet covered by an fsync may be torn.
func (j *Journal) Kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	j.active.f.Close()
	j.active.sealed = true
	j.wakeLocked()
}

// headerOK reports whether data opens with segment seq's header.
func headerOK(data []byte, seq uint64) bool {
	if len(data) < segHeaderSize {
		return false
	}
	body, err := frame.Decode(frame.KindSegment, data[:segHeaderSize])
	return err == nil && binary.LittleEndian.Uint64(body) == seq
}
