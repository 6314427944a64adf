package prorp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// buildArchive produces a realistic fleet archive: a few databases with
// history, predictions, and mixed lifecycle states.
func buildArchive(t *testing.T) []byte {
	t.Helper()
	opts := DefaultOptions()
	opts.LogicalPause = time.Hour
	fleet := newFleetRef(t, opts)
	start := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	day := 24 * time.Hour
	for id := 1; id <= 4; id++ {
		if err := fleet.Create(id, start); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 3; d++ {
		for id := 1; id <= 4; id++ {
			if d > 0 {
				fleet.Login(id, start.Add(time.Duration(d)*day+9*time.Hour))
			}
			fleet.Idle(id, start.Add(time.Duration(d)*day+17*time.Hour))
		}
	}
	var buf bytes.Buffer
	if _, err := fleet.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreBoth runs one corrupted archive through both restore paths
// (RestoreShardedFleet and RestoreFleet) and reports their errors. Any
// panic is converted into a test failure: corrupt input must yield a typed
// error, never a panic.
func restoreBoth(t *testing.T, label string, data []byte) (sharded, plain error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: restore panicked: %v", label, r)
		}
	}()
	_, _, sharded = RestoreShardedFleet(DefaultOptions(), 4, bytes.NewReader(data))
	_, _, plain = RestoreFleet(DefaultOptions(), bytes.NewReader(data))
	return sharded, plain
}

func TestRestoreTruncatedArchives(t *testing.T) {
	archive := buildArchive(t)
	// Every strict prefix is a truncation the decoder must reject: the
	// header's count field promises entries the stream cannot deliver.
	// Sample densely at the front (headers, first entry) and spread over
	// the rest.
	lengths := map[int]bool{}
	for n := 0; n < len(archive) && n < 64; n++ {
		lengths[n] = true
	}
	for n := 64; n < len(archive); n += 97 {
		lengths[n] = true
	}
	lengths[len(archive)-1] = true
	for n := range lengths {
		trunc := archive[:n]
		sharded, plain := restoreBoth(t, fmt.Sprintf("truncate[:%d]", n), trunc)
		if sharded == nil || plain == nil {
			t.Fatalf("truncate[:%d]: restore succeeded (sharded=%v plain=%v)", n, sharded, plain)
		}
		if !errors.Is(sharded, ErrCorruptArchive) {
			t.Fatalf("truncate[:%d]: sharded error %v does not wrap ErrCorruptArchive", n, sharded)
		}
		if !errors.Is(plain, ErrCorruptArchive) {
			t.Fatalf("truncate[:%d]: plain error %v does not wrap ErrCorruptArchive", n, plain)
		}
	}
}

func TestRestoreBitFlippedArchives(t *testing.T) {
	archive := buildArchive(t)
	rng := rand.New(rand.NewSource(7))
	// Exhaustive over the first bytes (the frame header, count, first
	// record header), then a seeded sample across the body. The archive
	// frame's checksum rejects every flip; a restore must never panic, and
	// it must fail typed.
	offsets := map[int]bool{}
	for i := 0; i < 24 && i < len(archive); i++ {
		offsets[i] = true
	}
	for i := 0; i < 200; i++ {
		offsets[rng.Intn(len(archive))] = true
	}
	for off := range offsets {
		for bit := 0; bit < 8; bit++ {
			dirty := bytes.Clone(archive)
			dirty[off] ^= 1 << bit
			label := fmt.Sprintf("flip byte %d bit %d", off, bit)
			sharded, plain := restoreBoth(t, label, dirty)
			if !errors.Is(sharded, ErrCorruptArchive) {
				t.Fatalf("%s: sharded error %v does not wrap ErrCorruptArchive", label, sharded)
			}
			if !errors.Is(plain, ErrCorruptArchive) {
				t.Fatalf("%s: plain error %v does not wrap ErrCorruptArchive", label, plain)
			}
		}
	}
}

func TestRestoreGarbageAndEmpty(t *testing.T) {
	cases := map[string][]byte{
		"empty":      {},
		"short":      {0x50},
		"zeros":      make([]byte, 64),
		"textual":    []byte("definitely not a fleet archive, not even close"),
		"bad-magic":  {0xDE, 0xAD, 0xBE, 0xEF, 1, 0, 0, 0},
		"magic-only": {0x31, 0x46, 0x52, 0x50}, // the legacy "PRF1" with no count
	}
	for name, data := range cases {
		sharded, plain := restoreBoth(t, name, data)
		if sharded == nil || plain == nil {
			t.Fatalf("%s: restore of garbage succeeded", name)
		}
		if !errors.Is(sharded, ErrCorruptArchive) || !errors.Is(plain, ErrCorruptArchive) {
			t.Fatalf("%s: errors not typed (sharded=%v plain=%v)", name, sharded, plain)
		}
	}
}
