package shardedfleet

import (
	"bytes"
	"testing"
)

func TestArchiveRoundTripAcrossShardCounts(t *testing.T) {
	rt := mustNew(t, cfg28(8))
	// A mix of states: 0..7 physically paused with predictions (four days
	// of 09:00 logins clear c = 0.1 at the 28-day history), 8 logically
	// paused (pending wake), 9 resumed-active.
	for id := 0; id < 8; id++ {
		driveDailyPattern(t, rt, id, 4)
	}
	if err := rt.Create(8, t0+9*3600); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Logout(8, t0+10*3600); err != nil {
		t.Fatal(err)
	}
	if err := rt.Create(9, t0+9*3600); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := rt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a runtime with a different stripe count: ids must land
	// on their new owning shards with metadata re-registered.
	rt2 := mustNew(t, cfg28(3))
	wakes, err := rt2.RestoreArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Size() != 10 {
		t.Fatalf("restored Size = %d", rt2.Size())
	}
	if rt2.PausedCount() != 8 {
		t.Fatalf("restored PausedCount = %d", rt2.PausedCount())
	}
	if len(wakes) != 1 || wakes[0].ID != 8 || wakes[0].WakeAt != t0+11*3600 {
		t.Fatalf("pending wakes = %+v", wakes)
	}
	for id := 0; id < 10; id++ {
		want, _ := rt.State(id)
		got, err := rt2.State(id)
		if err != nil || got != want {
			t.Fatalf("State(%d) = %v, %v; want %v", id, got, err, want)
		}
	}

	// The restored fleet is live: the resume op still finds the paused
	// databases via the re-registered metadata.
	pws := rt2.RunResumeOp(t0 + 4*day + 9*3600 - 120)
	if len(pws) != 8 {
		t.Fatalf("resume op after restore prewarmed %d, want 8", len(pws))
	}

	// Duplicate restore is rejected.
	if _, err := rt2.RestoreArchive(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("duplicate RestoreArchive succeeded")
	}
}

func TestRestoreArchiveRejectsGarbage(t *testing.T) {
	rt := mustNew(t, testCfg(2))
	if _, err := rt.RestoreArchive(bytes.NewReader([]byte("not an archive"))); err == nil {
		t.Fatal("garbage archive accepted")
	}
	if _, err := rt.RestoreArchive(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty archive accepted")
	}
}
