package historystore

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const day = int64(SecondsPerDay)

func TestInsertDeduplicates(t *testing.T) {
	s := New()
	if !s.Insert(100, EventStart) {
		t.Fatal("first insert returned false")
	}
	if s.Insert(100, EventEnd) {
		t.Fatal("duplicate time_snapshot inserted")
	}
	if s.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", s.Len())
	}
	ev := s.Scan(100, 100)
	if len(ev) != 1 || ev[0].Type != EventStart {
		t.Fatalf("Scan = %v, want single start event", ev)
	}
}

func TestInsertRejectsInvalidType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(7) did not panic")
		}
	}()
	New().Insert(1, 7)
}

func TestSizeBytes(t *testing.T) {
	s := New()
	for i := int64(0); i < 100; i++ {
		s.Insert(i, byte(i%2))
	}
	if got := s.SizeBytes(); got != 1600 {
		t.Fatalf("SizeBytes() = %d, want 1600 (100 tuples x 16 B)", got)
	}
}

func TestDeleteOldEmptyStore(t *testing.T) {
	s := New()
	old, removed := s.DeleteOld(28, 100*day)
	if old || removed != 0 {
		t.Fatalf("DeleteOld on empty store = %v,%d", old, removed)
	}
}

func TestDeleteOldYoungDatabase(t *testing.T) {
	// All tuples inside the retention window: nothing removed, not old.
	s := New()
	now := 100 * day
	for i := int64(0); i < 10; i++ {
		s.Insert(now-i*day, EventStart)
	}
	old, removed := s.DeleteOld(28, now)
	if old {
		t.Error("database younger than h reported old")
	}
	if removed != 0 {
		t.Errorf("removed %d tuples from a young database", removed)
	}
	if s.Len() != 10 {
		t.Errorf("Len() = %d, want 10", s.Len())
	}
}

func TestDeleteOldTrimsButKeepsLifespanMarker(t *testing.T) {
	s := New()
	now := 100 * day
	// One tuple per day for the last 60 days.
	for i := int64(0); i < 60; i++ {
		s.Insert(now-i*day, EventStart)
	}
	old, removed := s.DeleteOld(28, now)
	if !old {
		t.Fatal("60-day database not reported old")
	}
	// historyStart = now - 28d. Tuples at days 0..28 before now (29 tuples,
	// the one exactly at the boundary included) are retained; day 59 (the
	// oldest tuple, the lifespan marker) survives; days 29..58 (30 tuples)
	// are deleted.
	if removed != 30 {
		t.Fatalf("removed %d tuples, want 30", removed)
	}
	if s.Len() != 30 {
		t.Fatalf("Len() = %d, want 30", s.Len())
	}
	minTS, _ := s.MinTimestamp()
	if minTS != now-59*day {
		t.Fatalf("lifespan marker = %d, want %d", minTS, now-59*day)
	}
}

func TestDeleteOldBoundaryExclusive(t *testing.T) {
	// A tuple exactly at historyStart must survive: the SQL predicate is
	// time_snapshot < @historyStart (strict).
	s := New()
	now := 100 * day
	historyStart := now - 28*day
	s.Insert(historyStart-10, EventStart) // lifespan marker, survives
	s.Insert(historyStart-5, EventEnd)    // strictly inside the doomed range
	s.Insert(historyStart, EventStart)    // exactly at the boundary: keep
	s.Insert(now, EventEnd)
	old, removed := s.DeleteOld(28, now)
	if !old {
		t.Fatal("not reported old")
	}
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if !s.idx.Has(historyStart) {
		t.Error("tuple at historyStart was deleted; boundary must be exclusive")
	}
	if !s.idx.Has(historyStart - 10) {
		t.Error("lifespan marker deleted")
	}
}

func TestDeleteOldIdempotent(t *testing.T) {
	s := New()
	now := 100 * day
	for i := int64(0); i < 60; i++ {
		s.Insert(now-i*day, EventStart)
	}
	s.DeleteOld(28, now)
	old, removed := s.DeleteOld(28, now)
	if !old {
		t.Error("second DeleteOld lost the old flag")
	}
	if removed != 0 {
		t.Errorf("second DeleteOld removed %d tuples", removed)
	}
}

func TestFirstLastLogin(t *testing.T) {
	s := New()
	s.Insert(100, EventStart)
	s.Insert(150, EventEnd)
	s.Insert(200, EventStart)
	s.Insert(250, EventEnd)
	s.Insert(300, EventStart)

	first, last, ok := s.FirstLastLogin(0, 1000)
	if !ok || first != 100 || last != 300 {
		t.Fatalf("FirstLastLogin(0,1000) = %d,%d,%v, want 100,300,true", first, last, ok)
	}
	// Ends of activity must be invisible to the login aggregate.
	first, last, ok = s.FirstLastLogin(140, 260)
	if !ok || first != 200 || last != 200 {
		t.Fatalf("FirstLastLogin(140,260) = %d,%d,%v, want 200,200,true", first, last, ok)
	}
	// A window with only EventEnd tuples has no logins.
	if _, _, ok := s.FirstLastLogin(150, 150); ok {
		t.Error("window containing only an end event reported a login")
	}
	if _, _, ok := s.FirstLastLogin(400, 500); ok {
		t.Error("empty window reported a login")
	}
	// Inclusive bounds on both ends.
	first, last, ok = s.FirstLastLogin(100, 300)
	if !ok || first != 100 || last != 300 {
		t.Fatalf("inclusive bounds broken: %d,%d,%v", first, last, ok)
	}
}

// TestLoginCursorAgreesWithFirstLastLogin walks a cursor from every
// timestamp of a multi-leaf store with runs of consecutive logouts in it and
// checks it against the range aggregate it is the resumable form of.
func TestLoginCursorAgreesWithFirstLastLogin(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(11))
	const span = 1000
	for i := 0; i < 200; i++ {
		typ := EventEnd
		if rng.Intn(3) == 0 {
			typ = EventStart
		}
		s.Insert(rng.Int63n(span), typ)
	}
	for from := int64(-1); from <= span; from++ {
		c := s.SeekLogin(from)
		prev := from - 1
		for {
			got, ok := c.Time()
			// The next login after prev, by the range query.
			want, _, wantOK := s.FirstLastLogin(prev+1, span)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("cursor from %d after %d: %d,%v, FirstLastLogin says %d,%v", from, prev, got, ok, want, wantOK)
			}
			if !ok {
				break
			}
			prev = got
			c.Next()
		}
	}
	if _, ok := New().SeekLogin(0).Time(); ok {
		t.Error("cursor on an empty store reports a login")
	}
}

func TestHasActivity(t *testing.T) {
	s := New()
	s.Insert(150, EventEnd)
	if !s.HasActivity(100, 200) {
		t.Error("HasActivity missed an end event")
	}
	if s.HasActivity(151, 200) {
		t.Error("HasActivity reported activity in an empty range")
	}
}

func TestScanOrdering(t *testing.T) {
	s := New()
	times := []int64{500, 100, 300, 200, 400}
	for i, ts := range times {
		s.Insert(ts, byte(i%2))
	}
	ev := s.Scan(0, 1000)
	if len(ev) != 5 {
		t.Fatalf("Scan returned %d events, want 5", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i-1].Time >= ev[i].Time {
			t.Fatalf("Scan not ordered: %v", ev)
		}
	}
}

func TestClone(t *testing.T) {
	s := New()
	for i := int64(0); i < 50; i++ {
		s.Insert(i*100, byte(i%2))
	}
	c := s.Clone()
	if c.Len() != s.Len() {
		t.Fatalf("clone Len() = %d, want %d", c.Len(), s.Len())
	}
	// Mutating the clone must not touch the original.
	c.Insert(99999, EventStart)
	if s.Len() == c.Len() {
		t.Fatal("clone shares storage with original")
	}
}

// Property: DeleteOld never removes tuples inside the retention window and
// never removes the oldest tuple.
func TestQuickDeleteOldPreservesRecent(t *testing.T) {
	f := func(offsets []uint32) bool {
		s := New()
		now := 365 * day
		for _, off := range offsets {
			ts := now - int64(off%(90*uint32(day)))
			s.Insert(ts, EventStart)
		}
		minBefore, hadAny := s.MinTimestamp()
		recent := s.Scan(now-28*day, now)
		s.DeleteOld(28, now)
		if hadAny {
			minAfter, _ := s.MinTimestamp()
			if minAfter != minBefore {
				return false // lifespan marker lost
			}
		}
		after := s.Scan(now-28*day, now)
		if len(after) != len(recent) {
			return false // recent tuple lost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Insert(int64(i), byte(i%2))
	}
}

func BenchmarkFirstLastLogin(b *testing.B) {
	s := New()
	// A realistic 4-week history: ~500 tuples per week (Figure 10(a)).
	for i := int64(0); i < 2000; i++ {
		s.Insert(i*1200, byte(i%2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FirstLastLogin(int64(i%2000)*1200, int64(i%2000)*1200+25200)
	}
}

func BenchmarkDeleteOld(b *testing.B) {
	now := 365 * day
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New()
		for j := int64(0); j < 2000; j++ {
			s.Insert(now-j*3600, EventStart)
		}
		b.StartTimer()
		s.DeleteOld(28, now)
	}
}
