package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"time"

	"prorp/internal/faults"
	"prorp/internal/obs"
)

// snapshotStore is the durable side of the serving runtime: it persists
// fleet archives with the failure model a production control plane needs.
//
//   - Writes are atomic: temp file in the target directory, fsync, rename.
//     A crash mid-write leaves the previous snapshot untouched.
//   - Every snapshot is framed in a checksummed container (PRS2): magic,
//     payload length, CRC-32C, the WAL compaction boundary, payload (the
//     PRF1 fleet archive). Restores verify the frame before a single byte
//     reaches the fleet decoder. The boundary is the WAL segment sequence
//     the journal rotated to when this snapshot was taken: on boot, replay
//     starts there, and the checksum covers it — a flipped boundary would
//     otherwise silently skip acknowledged events.
//   - The previous snapshot is rotated to <path>.bak before the rename, so
//     one corrupted write never destroys the last-known-good state; loads
//     fall back to the .bak when the primary is corrupt or missing. A .bak
//     carries an older boundary, so falling back simply replays more WAL.
//   - Transient I/O errors are retried with capped jittered exponential
//     backoff through the faults.FS/Clock seams, so chaos tests drive the
//     whole path deterministically.
//
// PRS2 is the only container that loads: any other file — including a bare
// PRF1 archive, which carries no checksum — is corrupt and takes the .bak
// fallback.
const (
	storeMagic2      = 0x50525332 // "PRS2"
	storeHeader2Size = 24         // magic u32 + payload length u64 + crc32c u32 + WAL boundary u64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errSnapshotCorrupt classifies container-level damage (bad magic, length
// mismatch, checksum mismatch). It is distinct from transient I/O errors:
// corruption is never retried, it triggers the .bak fallback instead.
var errSnapshotCorrupt = errors.New("snapshot container corrupt")

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

// Save atomically persists one archive: frame, temp-write, fsync, rotate,
// rename — the whole attempt retried on transient errors. walSeq is the
// journal boundary recorded in the container (0 when no WAL is
// configured). It returns the container size and the number of retries
// that were needed.
func (st *snapshotStore) Save(src io.WriterTo, walSeq uint64) (n int64, retries int, err error) {
	var payload bytes.Buffer
	payload.Write(make([]byte, storeHeader2Size)) // frame filled in below
	if _, err := src.WriteTo(&payload); err != nil {
		return 0, 0, fmt.Errorf("serializing fleet: %w", err)
	}
	return st.savePayload(payload.Bytes(), walSeq)
}

// frameContainer fills in the PRS2 header of a buffer carrying
// storeHeader2Size bytes of headroom at the front and returns it. The
// same frame goes to disk (savePayload) and over the wire (the
// replication snapshot endpoint).
func frameContainer(frame []byte, walSeq uint64) []byte {
	body := frame[storeHeader2Size:]
	binary.LittleEndian.PutUint32(frame[0:4], storeMagic2)
	binary.LittleEndian.PutUint64(frame[4:12], uint64(len(body)))
	binary.LittleEndian.PutUint64(frame[16:24], walSeq)
	// The checksum covers the boundary too: bit rot there must trigger the
	// .bak fallback, not a silently wrong replay start.
	binary.LittleEndian.PutUint32(frame[12:16], crc32.Checksum(frame[16:], crcTable))
	return frame
}

// savePayload persists a pre-serialized archive. frame must have
// storeHeader2Size bytes of headroom at the front for the container
// header.
func (st *snapshotStore) savePayload(frame []byte, walSeq uint64) (n int64, retries int, err error) {
	frame = frameContainer(frame, walSeq)

	if st.saveHist != nil {
		defer st.saveHist.ObserveSince(time.Now())
	}
	retries, err = faults.Retry(st.clock, st.backoff, func() error {
		return st.writeOnce(frame)
	})
	if err != nil {
		return 0, retries, err
	}
	return int64(len(frame)), retries, nil
}

// writeOnce is one atomic write attempt. The current snapshot rotates to
// .bak, last-known-good, before the replace. A failed rotation is not fatal
// — the replace is still atomic, only the fallback lineage goes stale — and
// a crash between the two renames is covered: loads fall back to the .bak.
func (st *snapshotStore) writeOnce(frame []byte) error {
	rerr, err := faults.WriteFileAtomic(st.fs, st.path, frame, st.bakPath())
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

// readVerify reads one snapshot file and verifies its container frame,
// returning the inner PRF1 payload and the WAL boundary. Transient read
// errors are retried; corruption is not.
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
	return verifyContainer(data)
}

// verifyContainer validates a PRS2 frame and returns its payload and WAL
// boundary.
func verifyContainer(data []byte) ([]byte, uint64, error) {
	if len(data) < storeHeader2Size {
		return nil, 0, fmt.Errorf("%w: truncated header (%d bytes)", errSnapshotCorrupt, len(data))
	}
	if got := binary.LittleEndian.Uint32(data[0:4]); got != storeMagic2 {
		return nil, 0, fmt.Errorf("%w: bad magic %#x", errSnapshotCorrupt, got)
	}
	length := binary.LittleEndian.Uint64(data[4:12])
	sum := binary.LittleEndian.Uint32(data[12:16])
	walSeq := binary.LittleEndian.Uint64(data[16:24])
	body := data[storeHeader2Size:]
	if uint64(len(body)) != length {
		return nil, 0, fmt.Errorf("%w: payload is %d bytes, header says %d",
			errSnapshotCorrupt, len(body), length)
	}
	if got := crc32.Checksum(data[16:], crcTable); got != sum {
		return nil, 0, fmt.Errorf("%w: checksum %#x, want %#x", errSnapshotCorrupt, got, sum)
	}
	return body, walSeq, nil
}

// funcClock adapts the server's Now/Sleep funcs to the faults.Clock seam.
type funcClock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

func (c funcClock) Now() time.Time        { return c.now() }
func (c funcClock) Sleep(d time.Duration) { c.sleep(d) }
