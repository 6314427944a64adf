package predictor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prorp/internal/historystore"
	"prorp/internal/workload"
)

const (
	day  = int64(historystore.SecondsPerDay)
	hour = int64(3600)
)

// seedDaily inserts a login/logout pair at the given hour-of-day offset for
// each of n previous days before base.
func seedDaily(st *historystore.Store, base int64, n int, startOff, endOff int64) {
	for i := 1; i <= n; i++ {
		st.Insert(base-int64(i)*day+startOff, historystore.EventStart)
		st.Insert(base-int64(i)*day+endOff, historystore.EventEnd)
	}
}

func TestDefaultMatchesPaperTable1(t *testing.T) {
	p := Default()
	if p.HistoryDays != 28 {
		t.Errorf("h = %d days, want 28", p.HistoryDays)
	}
	if p.HorizonHours != 24 {
		t.Errorf("p = %d hours, want 24", p.HorizonHours)
	}
	if p.Confidence != 0.1 {
		t.Errorf("c = %v, want 0.1", p.Confidence)
	}
	if p.WindowSec != 7*3600 {
		t.Errorf("w = %d s, want 7 h", p.WindowSec)
	}
	if p.SlideSec != 300 {
		t.Errorf("s = %d s, want 5 min", p.SlideSec)
	}
	if p.Seasonality != Daily {
		t.Errorf("seasonality = %v, want daily", p.Seasonality)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Default() invalid: %v", err)
	}
}

func TestPredictEmptyHistory(t *testing.T) {
	st := historystore.New()
	if a, ok := Predict(st, Default(), 1000*day); ok || !a.IsZero() {
		t.Fatalf("Predict on empty history = %+v,%v", a, ok)
	}
}

func TestPredictDailyPattern(t *testing.T) {
	st := historystore.New()
	now := 1000 * day // midnight
	// Logins 09:00-10:00 every day for 28 days.
	seedDaily(st, now, 28, 9*hour, 10*hour)
	a, ok := Predict(st, Default(), now)
	if !ok {
		t.Fatal("no prediction for a perfect daily pattern")
	}
	// The window is 7 h wide and slides 5 min, so the first qualifying
	// window is [02:00+ε, 09:00+ε]; the predicted start must be the actual
	// login time 09:00 (offsets are measured from real logins).
	if a.Start != now+9*hour {
		t.Errorf("predicted start = now+%ds, want now+%ds", a.Start-now, 9*hour)
	}
	if a.End < a.Start {
		t.Errorf("predicted end %d before start %d", a.End, a.Start)
	}
	if a.End > now+24*hour {
		t.Errorf("predicted end beyond horizon: now+%ds", a.End-now)
	}
}

func TestPredictConfidenceThreshold(t *testing.T) {
	st := historystore.New()
	now := 1000 * day
	// Activity on only 2 of the last 28 days: probability 2/28 ~= 0.071.
	seedDaily(st, now, 2, 9*hour, 10*hour)

	p := Default() // c = 0.1
	if _, ok := Predict(st, p, now); ok {
		t.Error("prediction made below the confidence threshold")
	}
	p.Confidence = 0.05
	if _, ok := Predict(st, p, now); !ok {
		t.Error("no prediction despite probability above threshold")
	}
}

func TestPredictHighConfidenceFiltersSparsePattern(t *testing.T) {
	// Figure 9's mechanism: raising c suppresses predictions for databases
	// whose pattern repeats on only a fraction of days.
	st := historystore.New()
	now := 1000 * day
	seedDaily(st, now, 14, 9*hour, 10*hour) // every other day ~ prob 0.5
	for _, tc := range []struct {
		c    float64
		want bool
	}{{0.1, true}, {0.5, true}, {0.51, false}, {0.8, false}} {
		p := Default()
		p.Confidence = tc.c
		if _, ok := Predict(st, p, now); ok != tc.want {
			t.Errorf("c=%v: ok=%v, want %v", tc.c, ok, tc.want)
		}
	}
}

func TestPredictEarliestActivityWins(t *testing.T) {
	st := historystore.New()
	now := 1000 * day
	// Two daily activity periods: 04:00-05:00 and 15:00-16:00.
	seedDaily(st, now, 28, 4*hour, 5*hour)
	for i := 1; i <= 28; i++ {
		st.Insert(now-int64(i)*day+15*hour, historystore.EventStart)
		st.Insert(now-int64(i)*day+16*hour, historystore.EventEnd)
	}
	a, ok := Predict(st, Default(), now)
	if !ok {
		t.Fatal("no prediction")
	}
	if a.Start != now+4*hour {
		t.Errorf("predicted start = now+%dh, want the earlier activity at now+4h",
			(a.Start-now)/hour)
	}
}

func TestPredictWeeklySeasonality(t *testing.T) {
	st := historystore.New()
	now := 1001 * day // arbitrary alignment
	// Activity only once a week for 4 weeks.
	for i := 1; i <= 4; i++ {
		st.Insert(now-int64(i)*7*day+9*hour, historystore.EventStart)
		st.Insert(now-int64(i)*7*day+10*hour, historystore.EventEnd)
	}

	// Daily detector at c=0.2: probability 4/28 ~= 0.14 -> no prediction.
	p := Default()
	p.Confidence = 0.2
	if _, ok := Predict(st, p, now); ok {
		t.Error("daily detector predicted a weekly-only pattern at c=0.2")
	}
	// Weekly detector: probability 4/4 = 1.
	p.Seasonality = Weekly
	a, ok := Predict(st, p, now)
	if !ok {
		t.Fatal("weekly detector missed a perfect weekly pattern")
	}
	if a.Start != now+9*hour {
		t.Errorf("weekly predicted start = now+%ds, want now+%ds", a.Start-now, 9*hour)
	}
}

func TestPredictHorizonRespected(t *testing.T) {
	st := historystore.New()
	now := 1000 * day
	// Activity at 20:00 daily; with a 12 h horizon and 7 h window, windows
	// end at 12:00 latest, so window starts reach 05:00 and the 20:00
	// activity is out of reach... but windows reaching [05:00,12:00] never
	// contain 20:00 logins. No prediction.
	seedDaily(st, now, 28, 20*hour, 21*hour)
	p := Default()
	p.HorizonHours = 12
	if a, ok := Predict(st, p, now); ok {
		t.Errorf("prediction %+v beyond the 12 h horizon", a)
	}
	// With the full 24 h horizon it is found.
	p.HorizonHours = 24
	a, ok := Predict(st, p, now)
	if !ok || a.Start != now+20*hour {
		t.Errorf("24 h horizon: got %+v,%v, want start at now+20h", a, ok)
	}
}

func TestPredictProbabilityCountsWindowsNotLogins(t *testing.T) {
	// Section 6: several first-logins inside one window on the same day
	// must count as ONE window with activity, not several.
	st := historystore.New()
	now := 1000 * day
	// 5 logins within one hour on a single previous day.
	for j := int64(0); j < 5; j++ {
		st.Insert(now-day+9*hour+j*600, historystore.EventStart)
	}
	p := Default()
	p.HistoryDays = 28
	p.Confidence = 0.1 // needs ~3 of 28 days
	if _, ok := Predict(st, p, now); ok {
		t.Error("multiple logins on one day inflated the probability")
	}
	p.Confidence = 1.0 / 28.0 // one day of 28 suffices
	if _, ok := Predict(st, p, now); !ok {
		t.Error("single-day activity not found at matching threshold")
	}
}

func TestValidate(t *testing.T) {
	good := Default()
	bad := []func(*Params){
		func(p *Params) { p.HistoryDays = 0 },
		func(p *Params) { p.HistoryDays = -3 },
		func(p *Params) { p.HorizonHours = 0 },
		func(p *Params) { p.Confidence = 0 },
		func(p *Params) { p.Confidence = 1.5 },
		func(p *Params) { p.WindowSec = 0 },
		func(p *Params) { p.SlideSec = -1 },
		func(p *Params) { p.Seasonality = Seasonality(9) },
		func(p *Params) { p.Seasonality = Weekly; p.HistoryDays = 6 },
	}
	for i, mutate := range bad {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid params %+v", i, p)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected defaults: %v", err)
	}
}

func TestWindowCount(t *testing.T) {
	p := Default()
	// Horizon 24 h, window 7 h, slide 5 min: (24-7)*3600/300 + 1 = 205.
	if got := p.WindowCount(); got != 205 {
		t.Errorf("WindowCount() = %d, want 205", got)
	}
	p.WindowSec = 25 * 3600
	if got := p.WindowCount(); got != 0 {
		t.Errorf("window wider than horizon: WindowCount() = %d, want 0", got)
	}
}

func TestSeasonalityString(t *testing.T) {
	if Daily.String() != "daily" || Weekly.String() != "weekly" {
		t.Error("Seasonality.String() broken")
	}
	if Seasonality(9).String() == "" {
		t.Error("unknown seasonality prints empty")
	}
}

// Property: any prediction lies within [now, now+horizon] and has
// Start <= End, for arbitrary histories.
func TestQuickPredictionWithinHorizon(t *testing.T) {
	f := func(seed int64, nEvents uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := historystore.New()
		now := 1000 * day
		for i := 0; i < int(nEvents); i++ {
			ts := now - rng.Int63n(28*day)
			st.Insert(ts, byte(rng.Intn(2)))
		}
		p := Default()
		p.Confidence = 1.0 / 28.0 // permissive so predictions happen often
		a, ok := Predict(st, p, now)
		if !ok {
			return a.IsZero()
		}
		horizon := now + int64(p.HorizonHours)*3600
		return a.Start >= now && a.Start <= horizon &&
			a.End >= a.Start && a.End <= horizon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising the confidence threshold never turns a non-prediction
// into a prediction (monotone filtering, the mechanism behind Figure 9).
func TestQuickConfidenceMonotone(t *testing.T) {
	f := func(seed int64, nEvents uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := historystore.New()
		now := 1000 * day
		for i := 0; i < int(nEvents); i++ {
			st.Insert(now-rng.Int63n(28*day), historystore.EventStart)
		}
		lo, hi := Default(), Default()
		lo.Confidence, hi.Confidence = 0.05, 0.5
		_, okLo := Predict(st, lo, now)
		_, okHi := Predict(st, hi, now)
		// okHi implies okLo.
		return !okHi || okLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// denseHistory is n uniformly random tuples over the 28 look-back days:
// 2,000 is the Figure 10(a) average (~500 tuples/week x 4 weeks), 4,500 its
// worst case.
func denseHistory(n int) (*historystore.Store, int64) {
	st := historystore.New()
	now := 1000 * day
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		st.Insert(now-rng.Int63n(28*day), byte(rng.Intn(2)))
	}
	return st, now
}

func BenchmarkPredictTypicalHistory(b *testing.B) {
	st, now := denseHistory(2000)
	p := Default()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Predict(st, p, now)
	}
}

func BenchmarkPredictWorstCaseHistory(b *testing.B) {
	st, now := denseHistory(4500)
	p := Default()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Predict(st, p, now)
	}
}

// fleetHistory is one office-hours database of the EU1 mix after 29 days:
// a few dozen tuples, the shape every database of the serving benchmark's
// seeded fleet has (and the opposite regime from the dense histories above,
// where the first window qualifies and the scan breaks at once).
func fleetHistory(b *testing.B) (*historystore.Store, int64) {
	prof, err := workload.Region("EU1")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(7, prof)
	if err != nil {
		b.Fatal(err)
	}
	now := 29*day + 9*hour + 30*60
	for _, tr := range gen.Generate(200, 0, 30*day) {
		if tr.Pattern == workload.Office && tr.Birth < day {
			return storeAt(tr, Default().HistoryDays, now), now
		}
	}
	b.Fatal("no office database in the first 200 traces")
	return nil, 0
}

func BenchmarkPredictFleetHistory(b *testing.B) {
	st, now := fleetHistory(b)
	p := Default()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Predict(st, p, now)
	}
	b.ReportMetric(float64(st.Len()), "tuples")
}

// BenchmarkExplainFleetHistory puts the scan's two terms side by side: the
// sparse fleet history is all O(p/s), the dense ones add the O(m) read.
func BenchmarkExplainFleetHistory(b *testing.B) {
	histories := []struct {
		name  string
		build func() (*historystore.Store, int64)
	}{
		{"fleet", func() (*historystore.Store, int64) { return fleetHistory(b) }},
		{"dense2000", func() (*historystore.Store, int64) { return denseHistory(2000) }},
		{"dense4500", func() (*historystore.Store, int64) { return denseHistory(4500) }},
	}
	for _, h := range histories {
		b.Run(h.name, func(b *testing.B) {
			st, now := h.build()
			p := Default()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Explain(st, p, now)
			}
			b.ReportMetric(float64(st.Len()), "tuples")
		})
	}
}
