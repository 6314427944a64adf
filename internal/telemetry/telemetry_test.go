package telemetry

import "testing"

func TestAppendAndCount(t *testing.T) {
	l := New()
	l.Append(Record{Time: 10, DB: 1, Kind: ResumeWarm})
	l.Append(Record{Time: 20, DB: 2, Kind: ResumeCold})
	l.Append(Record{Time: 20, DB: 3, Kind: ResumeWarm})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Count(ResumeWarm) != 2 || l.Count(ResumeCold) != 1 || l.Count(Prewarm) != 0 {
		t.Fatal("Count broken")
	}
	if l.Count(Kind(-1)) != 0 || l.Count(Kind(999)) != 0 {
		t.Fatal("Count of invalid kind != 0")
	}
}

func TestAppendOutOfOrderPanics(t *testing.T) {
	l := New()
	l.Append(Record{Time: 100, Kind: Prewarm})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	l.Append(Record{Time: 99, Kind: Prewarm})
}

func TestAppendUnknownKindPanics(t *testing.T) {
	l := New()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	l.Append(Record{Time: 1, Kind: Kind(99)})
}

func TestCountRange(t *testing.T) {
	l := New()
	for i := int64(0); i < 10; i++ {
		l.Append(Record{Time: i * 10, Kind: PhysicalPause})
	}
	if got := l.CountRange(PhysicalPause, 20, 50); got != 4 {
		t.Fatalf("CountRange = %d, want 4 (inclusive bounds)", got)
	}
	if got := l.CountRange(Prewarm, 0, 100); got != 0 {
		t.Fatalf("CountRange other kind = %d", got)
	}
}

func TestBuckets(t *testing.T) {
	l := New()
	for _, ts := range []int64{0, 5, 59, 60, 61, 150, 240} {
		l.Append(Record{Time: ts, Kind: Prewarm})
	}
	got := l.Buckets(Prewarm, 0, 240, 60)
	// [0,60): 3; [60,120): 2; [120,180): 1; [180,240): 0. 240 excluded.
	want := []int{3, 2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("Buckets len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Buckets = %v, want %v", got, want)
		}
	}
}

func TestBucketsPartialLastInterval(t *testing.T) {
	l := New()
	l.Append(Record{Time: 95, Kind: Prewarm})
	got := l.Buckets(Prewarm, 0, 100, 60)
	if len(got) != 2 || got[1] != 1 {
		t.Fatalf("Buckets = %v, want [0 1]", got)
	}
}

func TestBucketsDegenerate(t *testing.T) {
	l := New()
	if l.Buckets(Prewarm, 0, 100, 0) != nil {
		t.Error("zero interval did not return nil")
	}
	if l.Buckets(Prewarm, 100, 100, 10) != nil {
		t.Error("empty range did not return nil")
	}
}

func TestVisit(t *testing.T) {
	l := New()
	l.Append(Record{Time: 1, DB: 7, Kind: Mitigation})
	l.Append(Record{Time: 2, DB: 8, Kind: Prewarm})
	l.Append(Record{Time: 3, DB: 9, Kind: Mitigation})
	var dbs []int
	l.Visit(Mitigation, func(r Record) { dbs = append(dbs, r.DB) })
	if len(dbs) != 2 || dbs[0] != 7 || dbs[1] != 9 {
		t.Fatalf("Visit collected %v", dbs)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", int(k))
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind prints empty")
	}
}
