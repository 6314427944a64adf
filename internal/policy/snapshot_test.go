package policy

import (
	"bytes"
	"io"
	"testing"
)

func snapshotRoundTrip(t *testing.T, m *Machine) *Machine {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(m.cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestSnapshotRoundTripResumed(t *testing.T) {
	base := 1000 * day
	m, _ := newOldProactive(t, base, 30)
	r := snapshotRoundTrip(t, m)
	if r.State() != m.State() || r.Active() != m.Active() || r.Old() != m.Old() {
		t.Fatalf("restored state %v/%v/%v, want %v/%v/%v",
			r.State(), r.Active(), r.Old(), m.State(), m.Active(), m.Old())
	}
	if r.NextActivity() != m.NextActivity() {
		t.Fatalf("restored prediction %+v, want %+v", r.NextActivity(), m.NextActivity())
	}
	if r.History().Len() != m.History().Len() {
		t.Fatalf("restored history %d tuples, want %d", r.History().Len(), m.History().Len())
	}
	if r.Predictions() != m.Predictions() {
		t.Fatalf("restored prediction count %d, want %d", r.Predictions(), m.Predictions())
	}
}

func TestSnapshotRoundTripPhysicallyPausedBehavesIdentically(t *testing.T) {
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	m.OnActivityEnd(loginAt + 8*hour) // physically paused, predicted 9:00

	r := snapshotRoundTrip(t, m)
	if r.State() != PhysicallyPaused {
		t.Fatalf("restored state %v", r.State())
	}
	// The restored machine must accept the prewarm and classify the
	// subsequent login identically to the original.
	prewarmAt := base + day + 9*hour - 300
	effOrig := m.OnPrewarm(prewarmAt)
	effRest := r.OnPrewarm(prewarmAt)
	if effOrig != effRest {
		t.Fatalf("prewarm effects diverge: %+v vs %+v", effOrig, effRest)
	}
	loginEffOrig := m.OnActivityStart(base + day + 9*hour)
	loginEffRest := r.OnActivityStart(base + day + 9*hour)
	if loginEffOrig != loginEffRest {
		t.Fatalf("login effects diverge: %+v vs %+v", loginEffOrig, loginEffRest)
	}
}

func TestSnapshotRestoredTimer(t *testing.T) {
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	eff := m.OnActivityEnd(loginAt + 3*hour) // logical pause, timer at 15:00
	r := snapshotRoundTrip(t, m)
	if got := r.RestoredTimer(); got != eff.TimerAt {
		t.Fatalf("RestoredTimer = %d, want the live timer %d", got, eff.TimerAt)
	}
	// Resumed and physically paused machines need no timer.
	m2, _ := newOldProactive(t, base, 30)
	if snapshotRoundTrip(t, m2).RestoredTimer() != 0 {
		t.Error("resumed machine reported a restored timer")
	}
	m2.OnActivityEnd(loginAt + 8*hour)
	if snapshotRoundTrip(t, m2).RestoredTimer() != 0 {
		t.Error("physically paused machine reported a restored timer")
	}
}

func TestSnapshotRestoreUnderNewConfig(t *testing.T) {
	// Fleet-wide re-training: a snapshot restored under different knobs
	// uses the new ones.
	base := 1000 * day
	m, loginAt := newOldProactive(t, base, 30)
	m.OnActivityEnd(loginAt + 8*hour)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Predictor.Confidence = 0.9 // re-trained threshold
	r, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Predictor.Confidence != 0.9 {
		t.Fatal("restored machine kept the old config")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	cfg := DefaultConfig()
	cases := map[string][]byte{
		"empty":      {},
		"no history": make([]byte, snapshotHeader),
		"bad state": func() []byte {
			base := 1000 * day
			m, _ := newOldProactive(t, base, 30)
			var buf bytes.Buffer
			m.WriteTo(&buf)
			b := buf.Bytes()
			b[0] = 9
			return b
		}(),
		"truncated history": func() []byte {
			base := 1000 * day
			m, _ := newOldProactive(t, base, 30)
			var buf bytes.Buffer
			m.WriteTo(&buf)
			return buf.Bytes()[:buf.Len()-5]
		}(),
	}
	for name, data := range cases {
		if _, err := Restore(cfg, bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	bad := cfg
	bad.LogicalPauseSec = 0
	if _, err := Restore(bad, bytes.NewReader(nil)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSnapshotWriteErrorPropagates(t *testing.T) {
	base := 1000 * day
	m, _ := newOldProactive(t, base, 30)
	if _, err := m.WriteTo(failAfter(0)); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{ left int }

func failAfter(n int) *failWriter { return &failWriter{left: n} }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.left -= len(p)
	return len(p), nil
}
