package metrics

import (
	"math"
	"strings"
	"testing"

	"prorp/internal/telemetry"
)

func mustCollector(t *testing.T, from, to int64) *Collector {
	t.Helper()
	c, err := NewCollector(from, to)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// observe folds one record of kind k at t through a fresh account, so it
// counts without accounting any time.
func observe(c *Collector, k telemetry.Kind, t int64) {
	a := NewAccount(t)
	c.Observe(&a, telemetry.Record{Time: t, Kind: k})
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewCollectorRejectsEmptyWindow(t *testing.T) {
	if _, err := NewCollector(100, 100); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := NewCollector(100, 50); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestSegmentClipping(t *testing.T) {
	c := mustCollector(t, 100, 200)
	c.AddSegment(Used, 0, 150)          // clips to [100,150) = 50
	c.AddSegment(Saved, 150, 300)       // clips to [150,200) = 50
	c.AddSegment(IdleLogical, 0, 90)    // entirely before: dropped
	c.AddSegment(IdleLogical, 250, 400) // entirely after: dropped
	c.AddSegment(IdleLogical, 120, 120) // empty: dropped
	r := c.Report()
	if r.Durations[Used] != 50 || r.Durations[Saved] != 50 || r.Durations[IdleLogical] != 0 {
		t.Fatalf("durations = %v", r.Durations)
	}
	if r.TotalTime() != 100 {
		t.Fatalf("TotalTime = %d", r.TotalTime())
	}
}

func TestAddSegmentUnknownCategoryPanics(t *testing.T) {
	c := mustCollector(t, 0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown category did not panic")
		}
	}()
	c.AddSegment(Category(42), 0, 5)
}

func TestEventWindowing(t *testing.T) {
	c := mustCollector(t, 100, 200)
	observe(c, telemetry.ResumeWarm, 99)  // before window: dropped
	observe(c, telemetry.ResumeWarm, 100) // inclusive start
	observe(c, telemetry.ResumeWarm, 150)
	observe(c, telemetry.ResumeCold, 199)
	observe(c, telemetry.ResumeCold, 200) // exclusive end: dropped
	r := c.Report()
	if r.WarmLogins != 2 || r.ColdLogins != 1 {
		t.Fatalf("logins = %d/%d, want 2/1", r.WarmLogins, r.ColdLogins)
	}
}

func TestQoSPercent(t *testing.T) {
	c := mustCollector(t, 0, 1000)
	for i := 0; i < 8; i++ {
		observe(c, telemetry.ResumeWarm, int64(i))
	}
	for i := 0; i < 2; i++ {
		observe(c, telemetry.ResumeCold, int64(i))
	}
	if got := c.Report().QoSPercent(); !almost(got, 80) {
		t.Fatalf("QoSPercent = %v, want 80", got)
	}
	empty := mustCollector(t, 0, 10).Report()
	if empty.QoSPercent() != 0 {
		t.Fatal("QoS of empty report != 0")
	}
}

func TestIdleDecomposition(t *testing.T) {
	c := mustCollector(t, 0, 1000)
	c.AddSegment(Used, 0, 500)
	c.AddSegment(IdleLogical, 500, 550)
	c.AddSegment(IdlePrewarmCorrect, 550, 580)
	c.AddSegment(IdlePrewarmWrong, 580, 600)
	c.AddSegment(Saved, 600, 990)
	c.AddSegment(Unavailable, 990, 1000)
	r := c.Report()
	if !almost(r.IdlePercent(), 10) {
		t.Fatalf("IdlePercent = %v, want 10", r.IdlePercent())
	}
	if !almost(r.IdleLogicalPercent(), 5) ||
		!almost(r.IdlePrewarmCorrectPercent(), 3) ||
		!almost(r.IdlePrewarmWrongPercent(), 2) {
		t.Fatalf("decomposition = %v/%v/%v",
			r.IdleLogicalPercent(), r.IdlePrewarmCorrectPercent(), r.IdlePrewarmWrongPercent())
	}
	if !almost(r.SavedPercent(), 39) || !almost(r.UsedPercent(), 50) ||
		!almost(r.UnavailablePercent(), 1) {
		t.Fatalf("saved/used/unavailable = %v/%v/%v",
			r.SavedPercent(), r.UsedPercent(), r.UnavailablePercent())
	}
}

func TestPercentagesSumToHundred(t *testing.T) {
	c := mustCollector(t, 0, 100)
	c.AddSegment(Used, 0, 30)
	c.AddSegment(IdleLogical, 30, 45)
	c.AddSegment(IdlePrewarmWrong, 45, 50)
	c.AddSegment(Saved, 50, 99)
	c.AddSegment(Unavailable, 99, 100)
	r := c.Report()
	sum := r.UsedPercent() + r.IdlePercent() + r.SavedPercent() + r.UnavailablePercent()
	if !almost(sum, 100) {
		t.Fatalf("percentages sum to %v", sum)
	}
}

func TestPrewarmCounters(t *testing.T) {
	c := mustCollector(t, 0, 100)
	observe(c, telemetry.Prewarm, 10)
	observe(c, telemetry.Prewarm, 20)
	observe(c, telemetry.PrewarmUsed, 30)
	observe(c, telemetry.PrewarmWasted, 40)
	observe(c, telemetry.LogicalPause, 50)
	observe(c, telemetry.PhysicalPause, 60)
	observe(c, telemetry.Prewarm, 200) // outside window
	r := c.Report()
	if r.Prewarms != 2 || r.PrewarmsUsed != 1 || r.PrewarmsWasted != 1 {
		t.Fatalf("prewarm counters = %d/%d/%d", r.Prewarms, r.PrewarmsUsed, r.PrewarmsWasted)
	}
	if r.LogicalPauses != 1 || r.PhysicalPauses != 1 {
		t.Fatalf("pause counters = %d/%d", r.LogicalPauses, r.PhysicalPauses)
	}
}

func TestEmptyReportPercentages(t *testing.T) {
	r := mustCollector(t, 0, 10).Report()
	for _, v := range []float64{
		r.IdlePercent(), r.SavedPercent(), r.UsedPercent(), r.UnavailablePercent(),
	} {
		if v != 0 {
			t.Fatal("empty report has nonzero percentage")
		}
	}
}

func TestReportString(t *testing.T) {
	c := mustCollector(t, 0, 100)
	c.AddSegment(Used, 0, 50)
	observe(c, telemetry.ResumeWarm, 10)
	r := c.Report()
	r.Name = "proactive EU1"
	s := r.String()
	for _, want := range []string{"proactive EU1", "QoS", "idle time", "prewarms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestCategoryString(t *testing.T) {
	for cat := Category(0); cat < numCategories; cat++ {
		if cat.String() == "" {
			t.Errorf("Category(%d) empty", int(cat))
		}
	}
	if Category(42).String() == "" {
		t.Error("unknown category empty")
	}
}
