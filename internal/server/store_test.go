package server

import (
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"prorp/internal/faults"
	"prorp/internal/frame"
)

// save persists payload the way Server.writeSnapshot does: spare bytes
// for the WAL boundary, then an archive frame around payload, as
// ShardedFleet.WriteTo writes one.
func save(st *snapshotStore, payload string, walSeq uint64) (int64, int, error) {
	buf := append(make([]byte, walSeqSize+frame.HeaderSize), payload...)
	frame.Seal(frame.KindArchive, buf[walSeqSize:])
	return st.savePayload(buf, walSeq)
}

type sleepCounter struct {
	n     int
	total time.Duration
}

func (c *sleepCounter) Now() time.Time        { return time.Time{} }
func (c *sleepCounter) Sleep(d time.Duration) { c.n++; c.total += d }

func testStore(t *testing.T, fsys faults.FS, clock faults.Clock) *snapshotStore {
	t.Helper()
	if clock == nil {
		clock = &sleepCounter{}
	}
	return &snapshotStore{
		path:    filepath.Join(t.TempDir(), "fleet.snap"),
		fs:      fsys,
		clock:   clock,
		backoff: faults.Backoff{Attempts: 4, Base: time.Millisecond, Max: 8 * time.Millisecond, Factor: 2},
		logf:    t.Logf,
	}
}

func loadPayload(t *testing.T, st *snapshotStore) (payload []byte, fellBack bool) {
	t.Helper()
	payload, fellBack, _ = loadPayloadSeq(t, st)
	return payload, fellBack
}

func loadPayloadSeq(t *testing.T, st *snapshotStore) (payload []byte, fellBack bool, walSeq uint64) {
	t.Helper()
	fellBack, walSeq, err := st.Load(func(r io.Reader) error {
		var err error
		payload, err = frame.Read(frame.KindArchive, r)
		return err
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return payload, fellBack, walSeq
}

func TestStoreRoundTripAndRotation(t *testing.T) {
	st := testStore(t, faults.OS, nil)

	if _, _, err := save(st, "v1", 0); err != nil {
		t.Fatal(err)
	}
	got, fellBack := loadPayload(t, st)
	if string(got) != "v1" || fellBack {
		t.Fatalf("load = %q, fellBack=%v", got, fellBack)
	}

	// Second save rotates v1 to .bak.
	if _, _, err := save(st, "v2", 0); err != nil {
		t.Fatal(err)
	}
	got, _ = loadPayload(t, st)
	if string(got) != "v2" {
		t.Fatalf("load = %q, want v2", got)
	}
	if _, err := os.Stat(st.bakPath()); err != nil {
		t.Fatalf("no .bak after second save: %v", err)
	}

	// No temp files leak.
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(st.path), "*.tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files leaked: %v", matches)
	}
}

func TestStoreLoadMissing(t *testing.T) {
	st := testStore(t, faults.OS, nil)
	_, _, err := st.Load(func(io.Reader) error { return nil })
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load of missing snapshot = %v, want ErrNotExist", err)
	}
}

func TestStoreFallbackOnCorruptPrimary(t *testing.T) {
	st := testStore(t, faults.OS, nil)
	if _, _, err := save(st, "good", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := save(st, "newer", 0); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the primary's payload region: checksum must catch it
	// and the load must fall back to the .bak (the previous good write).
	data, err := os.ReadFile(st.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(st.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, fellBack := loadPayload(t, st)
	if string(got) != "good" || !fellBack {
		t.Fatalf("load = %q, fellBack=%v; want fallback to %q", got, fellBack, "good")
	}
}

func TestStoreFallbackOnMissingPrimary(t *testing.T) {
	// A crash between the two renames leaves only the .bak.
	st := testStore(t, faults.OS, nil)
	if _, _, err := save(st, "only", 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.path, st.bakPath()); err != nil {
		t.Fatal(err)
	}
	got, fellBack := loadPayload(t, st)
	if string(got) != "only" || !fellBack {
		t.Fatalf("load = %q, fellBack=%v", got, fellBack)
	}
}

func TestStoreNoCandidateVerifies(t *testing.T) {
	// A corrupt primary with a corrupt — or missing — .bak is a hard error,
	// never "no snapshot yet": booting empty would silently lose the fleet.
	for name, bak := range map[string][]byte{
		"corrupt .bak": []byte("also garbage"),
		"missing .bak": nil,
	} {
		t.Run(name, func(t *testing.T) {
			st := testStore(t, faults.OS, nil)
			if err := os.WriteFile(st.path, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			if bak != nil {
				if err := os.WriteFile(st.bakPath(), bak, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := st.Load(func(io.Reader) error { return nil })
			if err == nil || errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Load = %v, want hard error", err)
			}
			if !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("error %v does not wrap frame.ErrCorrupt", err)
			}
		})
	}
}

func TestStoreRejectsLegacyFormats(t *testing.T) {
	// The snapshot frame is the only format that loads. A bare PRF1
	// archive (no checksum at all), a PRS1 container or the PRS2 container
	// that preceded the frame is corrupt, and takes the .bak fallback like
	// any other damaged primary.
	// PRS1: magic | length u64 | CRC-32C(body) | body.
	prs1Body := []byte("prs1 payload")
	prs1 := binary.LittleEndian.AppendUint32(nil, 0x50525331)
	prs1 = binary.LittleEndian.AppendUint64(prs1, uint64(len(prs1Body)))
	prs1 = binary.LittleEndian.AppendUint32(prs1, frame.Sum(prs1Body))
	prs1 = append(prs1, prs1Body...)
	// PRS2: magic | payload length u64 | CRC-32C(boundary+payload) |
	// WAL boundary u64 | payload.
	prs2Tail := append(binary.LittleEndian.AppendUint64(nil, 5), "prs2 payload"...)
	prs2 := binary.LittleEndian.AppendUint32(nil, 0x50525332)
	prs2 = binary.LittleEndian.AppendUint64(prs2, uint64(len(prs2Tail)-8))
	prs2 = binary.LittleEndian.AppendUint32(prs2, frame.Sum(prs2Tail))
	prs2 = append(prs2, prs2Tail...)
	cases := map[string][]byte{
		"bare PRF1":      append([]byte{0x31, 0x46, 0x52, 0x50}, "rest-of-archive, long enough to hold a header"...),
		"PRS1 container": prs1,
		"PRS2 container": prs2,
	}
	for name, legacy := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := openSnapshot(legacy); !errors.Is(err, frame.ErrKind) {
				t.Fatalf("openSnapshot = %v, want frame.ErrKind", err)
			}
			st := testStore(t, faults.OS, nil)
			if _, _, err := save(st, "last known good", 5); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(st.path, st.bakPath()); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			got, fellBack, seq := loadPayloadSeq(t, st)
			if string(got) != "last known good" || !fellBack || seq != 5 {
				t.Fatalf("load = %q, fellBack=%v, walSeq=%d; want the .bak", got, fellBack, seq)
			}
		})
	}
}

func TestStoreRetriesTransientWriteErrors(t *testing.T) {
	inj := faults.NewInjector(1)
	clock := &sleepCounter{}
	st := testStore(t, faults.NewFaultFS(faults.OS, inj, clock), clock)

	// Trip the first two createtemp calls: attempt 3 succeeds.
	inj.TripN("fs.createtemp", 2, nil)
	_, retries, err := save(st, "persisted", 0)
	if err != nil {
		t.Fatalf("Save under transient faults: %v", err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	if clock.n == 0 {
		t.Fatal("no backoff sleeps recorded")
	}
	got, _ := loadPayload(t, st)
	if string(got) != "persisted" {
		t.Fatalf("load = %q", got)
	}
}

func TestStoreGivesUpAfterBudget(t *testing.T) {
	inj := faults.NewInjector(2)
	st := testStore(t, faults.NewFaultFS(faults.OS, inj, &sleepCounter{}), nil)
	inj.TripN("fs.sync", 100, nil)
	_, _, err := save(st, "never", 0)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Save = %v, want injected error after budget", err)
	}
	// The failed write must not have clobbered anything.
	if _, err := os.Stat(st.path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed save left a primary snapshot: %v", err)
	}
}

func TestStoreCorruptionOnWriteCaughtOnLoad(t *testing.T) {
	inj := faults.NewInjector(3)
	clock := &sleepCounter{}
	ffs := faults.NewFaultFS(faults.OS, inj, clock)
	st := testStore(t, ffs, clock)

	if _, _, err := save(st, "good v1", 0); err != nil {
		t.Fatal(err)
	}
	inj.CorruptWrites("fs.write", 1)
	if _, _, err := save(st, "rotten v2", 0); err != nil {
		t.Fatal(err) // bit rot is silent at write time
	}
	inj.Heal("fs.write")

	got, fellBack := loadPayload(t, st)
	if string(got) != "good v1" || !fellBack {
		t.Fatalf("load after bit rot = %q, fellBack=%v; want fallback", got, fellBack)
	}
}

func TestStoreWALBoundaryRoundTrip(t *testing.T) {
	st := testStore(t, faults.OS, nil)
	if _, _, err := save(st, "with boundary", 42); err != nil {
		t.Fatal(err)
	}
	got, fellBack, seq := loadPayloadSeq(t, st)
	if string(got) != "with boundary" || fellBack || seq != 42 {
		t.Fatalf("load = %q, fellBack=%v, walSeq=%d; want walSeq 42", got, fellBack, seq)
	}
}

func TestStoreFallbackCarriesOlderBoundary(t *testing.T) {
	// A corrupt primary falls back to the .bak, whose older boundary makes
	// replay start earlier — more WAL replayed, never less.
	st := testStore(t, faults.OS, nil)
	if _, _, err := save(st, "old", 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := save(st, "new", 9); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(st.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, fellBack, seq := loadPayloadSeq(t, st)
	if string(got) != "old" || !fellBack || seq != 3 {
		t.Fatalf("load = %q, fellBack=%v, walSeq=%d; want fallback with boundary 3", got, fellBack, seq)
	}
}

func TestStoreBoundaryBitRotTriggersFallback(t *testing.T) {
	// The checksum covers the boundary field: flipping a boundary bit must
	// reject the container, not silently skip acknowledged events.
	st := testStore(t, faults.OS, nil)
	if _, _, err := save(st, "guarded", 7); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.path)
	if err != nil {
		t.Fatal(err)
	}
	data[frame.HeaderSize] ^= 0x01 // low byte of the walSeq field
	if err := os.WriteFile(st.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = st.Load(func(io.Reader) error { return nil })
	if !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("Load with flipped boundary = %v, want frame.ErrChecksum", err)
	}
}
