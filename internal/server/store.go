package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"

	"prorp/internal/faults"
	"prorp/internal/frame"
	"prorp/internal/obs"
)

// snapshotStore is the durable side of the serving runtime: it persists
// fleet archives with the failure model a production control plane needs.
//
//   - Writes are atomic: temp file in the target directory, fsync, rename.
//     A crash mid-write leaves the previous snapshot untouched.
//   - Every snapshot is one internal/frame KindSnapshot frame whose body is
//     the WAL compaction boundary (u64) and then the fleet archive's bare
//     body. Restores verify the frame before a single byte reaches the
//     fleet decoder. The boundary is the WAL segment sequence the journal
//     rotated to when this snapshot was taken: on boot, replay starts
//     there, and the checksum covers it — a flipped boundary would
//     otherwise silently skip acknowledged events.
//   - The previous snapshot is rotated to <path>.bak before the rename, so
//     one corrupted write never destroys the last-known-good state; loads
//     fall back to the .bak when the primary is corrupt (frame.ErrCorrupt)
//     or missing. A .bak carries an older boundary, so falling back simply
//     replays more WAL.
//   - Transient I/O errors are retried with capped jittered exponential
//     backoff through the faults.FS/Clock seams, so chaos tests drive the
//     whole path deterministically.

// walSeqSize is the WAL boundary at the front of a snapshot body.
const walSeqSize = 8

// sealSnapshot turns buf — walSeqSize spare bytes, then the archive frame
// ShardedFleet.WriteTo wrote — into a snapshot frame over the same bytes:
// the snapshot header and the boundary overwrite the archive header, so
// the snapshot's CRC is the only one over the archive body.
func sealSnapshot(buf []byte, walSeq uint64) ([]byte, error) {
	if _, err := frame.Decode(frame.KindArchive, buf[walSeqSize:]); err != nil {
		return nil, fmt.Errorf("snapshot payload: %w", err)
	}
	binary.LittleEndian.PutUint64(buf[frame.HeaderSize:], walSeq)
	return frame.Seal(frame.KindSnapshot, buf), nil
}

// openSnapshot verifies a snapshot frame and returns, over the same bytes,
// the archive frame RestoreShardedFleet reads, with the WAL boundary.
func openSnapshot(data []byte) ([]byte, uint64, error) {
	body, err := frame.Decode(frame.KindSnapshot, data)
	if err != nil {
		return nil, 0, err
	}
	if len(body) < walSeqSize {
		return nil, 0, fmt.Errorf("%w: snapshot body is %d bytes", frame.ErrShort, len(body))
	}
	walSeq := binary.LittleEndian.Uint64(body)
	return frame.Seal(frame.KindArchive, data[walSeqSize:]), walSeq, nil
}

type snapshotStore struct {
	path    string
	fs      faults.FS
	clock   faults.Clock
	backoff faults.Backoff
	logf    func(string, ...any)
	// Latency histograms for the disk half (framing excluded); nil-safe.
	saveHist *obs.Histogram
	loadHist *obs.Histogram
}

func (st *snapshotStore) bakPath() string { return st.path + ".bak" }

// savePayload atomically persists a pre-serialized archive laid out as
// sealSnapshot takes it: frame, temp-write, fsync, rotate, rename — the
// whole attempt retried on transient errors. walSeq is the journal
// boundary recorded in the snapshot (0 when no WAL is configured). It
// returns the snapshot size and the number of retries that were needed.
func (st *snapshotStore) savePayload(buf []byte, walSeq uint64) (n int64, retries int, err error) {
	snap, err := sealSnapshot(buf, walSeq)
	if err != nil {
		return 0, 0, err
	}
	if st.saveHist != nil {
		defer st.saveHist.ObserveSince(time.Now())
	}
	retries, err = faults.Retry(st.clock, st.backoff, func() error {
		return st.writeOnce(snap)
	})
	if err != nil {
		return 0, retries, err
	}
	return int64(len(snap)), retries, nil
}

// writeOnce is one atomic write attempt. The current snapshot rotates to
// .bak, last-known-good, before the replace. A failed rotation is not fatal
// — the replace is still atomic, only the fallback lineage goes stale — and
// a crash between the two renames is covered: loads fall back to the .bak.
func (st *snapshotStore) writeOnce(snap []byte) error {
	rerr, err := faults.WriteFileAtomic(st.fs, st.path, snap, st.bakPath())
	if rerr != nil {
		st.logf("snapshot rotation failed (continuing): %v", rerr)
	}
	return err
}

// Load reads, verifies, and decodes the snapshot chain: the primary first,
// then the last-known-good .bak. restore is called with the verified
// payload of each candidate until one decodes; fellBack reports that the
// surviving candidate was not the primary, and walSeq is the surviving
// snapshot's WAL replay boundary. When no snapshot exists at all the
// returned error satisfies errors.Is(err, fs.ErrNotExist).
func (st *snapshotStore) Load(restore func(io.Reader) error) (fellBack bool, walSeq uint64, err error) {
	if st.loadHist != nil {
		defer st.loadHist.ObserveSince(time.Now())
	}
	var failures []error
	missing := 0
	for i, p := range []string{st.path, st.bakPath()} {
		payload, seq, rerr := st.readVerify(p)
		if errors.Is(rerr, fs.ErrNotExist) {
			// %v, not %w: a missing candidate beside a corrupt one must not
			// make the joined error read as "no snapshot yet" — the caller
			// would boot an empty fleet over lost databases.
			missing++
			failures = append(failures, fmt.Errorf("%s: %v", p, rerr))
			continue
		}
		if rerr != nil {
			st.logf("snapshot %s unusable: %v", p, rerr)
			failures = append(failures, fmt.Errorf("%s: %w", p, rerr))
			continue
		}
		if derr := restore(bytes.NewReader(payload)); derr != nil {
			st.logf("snapshot %s does not decode: %v", p, derr)
			failures = append(failures, fmt.Errorf("%s: %w", p, derr))
			continue
		}
		return i > 0, seq, nil
	}
	if missing == 2 {
		return false, 0, fmt.Errorf("no snapshot: %w", fs.ErrNotExist)
	}
	return false, 0, errors.Join(failures...)
}

// readVerify reads one snapshot file and verifies its frame, returning the
// archive frame and the WAL boundary. Transient read errors are retried;
// corruption is not.
func (st *snapshotStore) readVerify(path string) ([]byte, uint64, error) {
	var data []byte
	var notExist error
	_, err := faults.Retry(st.clock, st.backoff, func() error {
		f, err := st.fs.Open(path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				notExist = err // a missing file is a verdict, not a transient
				return nil
			}
			return err
		}
		notExist = nil
		data, err = io.ReadAll(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if notExist != nil {
		return nil, 0, notExist
	}
	if err != nil {
		return nil, 0, err
	}
	return openSnapshot(data)
}

// funcClock adapts the server's Now/Sleep funcs to the faults.Clock seam.
type funcClock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

func (c funcClock) Now() time.Time        { return c.now() }
func (c funcClock) Sleep(d time.Duration) { c.sleep(d) }
