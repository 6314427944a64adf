package historystore

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSerializeRoundTrip(t *testing.T) {
	s := New()
	for i := int64(0); i < 500; i++ {
		s.Insert(i*977, byte(i%2))
	}
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerSize + 500*recordSize); n != want {
		t.Fatalf("WriteTo wrote %d bytes, want %d", n, want)
	}

	restored := New()
	restored.Insert(999999999, EventStart) // must be replaced, not merged
	m, err := restored.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("ReadFrom read %d bytes, wrote %d", m, n)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored %d tuples, want %d", restored.Len(), s.Len())
	}
	want := s.Scan(-1<<62, 1<<62)
	got := restored.Scan(-1<<62, 1<<62)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("tuple %d differs: %+v vs %+v", i, want[i], got[i])
		}
	}
}

func TestSerializeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if _, err := restored.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 {
		t.Fatalf("restored %d tuples from empty store", restored.Len())
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":    {},
		"short":    {1, 2, 3},
		"trailing": {0, 0, 0, 0, 1, 0, 0, 0},
		"truncated": func() []byte {
			s := New()
			s.Insert(1, EventStart)
			s.Insert(2, EventEnd)
			var buf bytes.Buffer
			s.WriteTo(&buf)
			return buf.Bytes()[:buf.Len()-4]
		}(),
		"bad event type": func() []byte {
			s := New()
			s.Insert(1, EventStart)
			var buf bytes.Buffer
			s.WriteTo(&buf)
			b := buf.Bytes()
			b[len(b)-1] = 7
			return b
		}(),
	}
	for name, data := range cases {
		st := New()
		st.Insert(42, EventStart)
		if _, err := st.ReadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadFrom accepted corrupt input", name)
		}
		// A failed restore must not clobber the existing contents.
		if !st.idx.Has(42) {
			t.Errorf("%s: failed restore clobbered the store", name)
		}
	}
}

func TestReadFromRejectsDuplicates(t *testing.T) {
	var buf bytes.Buffer
	s := New()
	s.Insert(1, EventStart)
	s.WriteTo(&buf)
	// Forge a second tuple with the same timestamp.
	b := buf.Bytes()
	b[0] = 2 // count = 2
	b = append(b, b[headerSize:headerSize+recordSize]...)
	if _, err := New().ReadFrom(bytes.NewReader(b)); err == nil {
		t.Fatal("duplicate time_snapshot accepted")
	}
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.after -= len(p)
	return len(p), nil
}

func TestWriteToPropagatesErrors(t *testing.T) {
	s := New()
	for i := int64(0); i < 10000; i++ {
		s.Insert(i, EventStart)
	}
	if _, err := s.WriteTo(&failingWriter{after: 64}); err == nil {
		t.Fatal("write error swallowed")
	}
}

func TestView(t *testing.T) {
	s := New()
	s.Insert(1693558800, EventStart) // 2023-09-01 09:00 UTC
	s.Insert(1693587600, EventEnd)   // 2023-09-01 17:00 UTC
	rows := s.View()
	if len(rows) != 2 {
		t.Fatalf("View rows = %d", len(rows))
	}
	if rows[0].Kind != "activity start" || rows[1].Kind != "activity end" {
		t.Fatalf("View kinds = %q, %q", rows[0].Kind, rows[1].Kind)
	}
	if rows[0].Time.Hour() != 9 || rows[1].Time.Hour() != 17 {
		t.Fatalf("View times = %v, %v", rows[0].Time, rows[1].Time)
	}
	if !rows[0].Time.Before(rows[1].Time) {
		t.Fatal("View not in time order")
	}
}

// Property: round-trip preserves arbitrary stores exactly.
func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < int(n); i++ {
			s.Insert(rng.Int63n(1<<40), byte(rng.Intn(2)))
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		r := New()
		if _, err := r.ReadFrom(&buf); err != nil {
			return false
		}
		if r.Len() != s.Len() {
			return false
		}
		a, b := s.Scan(0, 1<<41), r.Scan(0, 1<<41)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteTo(b *testing.B) {
	s := New()
	for i := int64(0); i < 2000; i++ {
		s.Insert(i*311, byte(i%2))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.WriteTo(io.Discard)
	}
}
