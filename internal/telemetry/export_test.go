package telemetry

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestExportImportRoundTrip(t *testing.T) {
	l := New()
	l.Append(Record{Time: 100, DB: 1, Kind: ActivityStart})
	l.Append(Record{Time: 200, DB: 2, Kind: Prewarm})
	l.Append(Record{Time: 200, DB: 3, Kind: PhysicalPause})

	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip: %d records, want %d", got.Len(), l.Len())
	}
	for i, r := range got.Records() {
		if r != l.Records()[i] {
			t.Fatalf("record %d: %+v vs %+v", i, r, l.Records()[i])
		}
	}
}

func TestExportFormat(t *testing.T) {
	l := New()
	l.Append(Record{Time: 42, DB: 7, Kind: ResumeWarm})
	var buf bytes.Buffer
	l.WriteTo(&buf)
	if got := buf.String(); got != "42,7,resume-warm\n" {
		t.Fatalf("exported %q", got)
	}
}

func TestReadLogSkipsBlankLines(t *testing.T) {
	l, err := ReadLog(strings.NewReader("\n42,7,resume-warm\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"too few fields":  "42,7\n",
		"too many fields": "42,7,resume-warm,x\n",
		"bad timestamp":   "xx,7,resume-warm\n",
		"bad database":    "42,yy,resume-warm\n",
		"unknown kind":    "42,7,lunch-break\n",
		"out of order":    "100,1,prewarm\n50,1,prewarm\n",
	}
	for name, input := range cases {
		if _, err := ReadLog(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

// Property: any log survives a round trip bit for bit.
func TestQuickExportRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		ts := int64(0)
		for i := 0; i < int(n); i++ {
			ts += rng.Int63n(1000)
			l.Append(Record{Time: ts, DB: rng.Intn(100), Kind: Kind(rng.Intn(int(NumKinds)))})
		}
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadLog(&buf)
		if err != nil || got.Len() != l.Len() {
			return false
		}
		for i, r := range got.Records() {
			if r != l.Records()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
