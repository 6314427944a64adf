package predictor

import (
	"math/rand"
	"reflect"
	"testing"

	"prorp/internal/historystore"
	"prorp/internal/workload"
)

// checkAgainstReference asserts that both shipped executions — Predict's
// sweep and Explain's grid — and the literal Algorithm 4 scan agree exactly — no tolerances — on the prediction and on
// every field of every window.
func checkAgainstReference(t testing.TB, st *historystore.Store, p Params, now int64) {
	t.Helper()
	wantStats, wantPred, wantOK := explainReference(st, p, now)

	if pred, ok := Predict(st, p, now); pred != wantPred || ok != wantOK {
		t.Fatalf("Predict(%+v, now=%d) = %+v,%v; reference %+v,%v (history %v)",
			p, now, pred, ok, wantPred, wantOK, st.Scan(-1<<62, 1<<62))
	}
	stats, pred, ok := Explain(st, p, now)
	if pred != wantPred || ok != wantOK {
		t.Fatalf("Explain(%+v, now=%d) prediction = %+v,%v; reference %+v,%v (history %v)",
			p, now, pred, ok, wantPred, wantOK, st.Scan(-1<<62, 1<<62))
	}
	if !reflect.DeepEqual(stats, wantStats) {
		for i := range stats {
			if i < len(wantStats) && stats[i] != wantStats[i] {
				t.Fatalf("Explain(%+v, now=%d) window %d = %+v; reference %+v (history %v)",
					p, now, i, stats[i], wantStats[i], st.Scan(-1<<62, 1<<62))
			}
		}
		t.Fatalf("Explain(%+v, now=%d): %d windows (nil=%v); reference %d (nil=%v)",
			p, now, len(stats), stats == nil, len(wantStats), wantStats == nil)
	}
}

// differentialParams are the shapes the differential test cycles through.
// Beyond the Table 1 default they cover what the sweep and the grid handle
// differently from a per-window query: look-back ranges that overlap (horizon longer
// than the period), more look-backs than the on-stack scratch holds, a
// window that does not fit the horizon, and w, s that share no factor, so
// window edges fall anywhere relative to each other.
func differentialParams() []Params {
	mod := func(f func(*Params)) Params {
		p := Default()
		f(&p)
		return p
	}
	return []Params{
		Default(),
		mod(func(p *Params) { p.Seasonality = Weekly }),
		mod(func(p *Params) { p.HorizonHours = 36; p.Confidence = 0.2 }),
		mod(func(p *Params) { p.HistoryDays = 70; p.Confidence = 0.05 }),
		mod(func(p *Params) { p.HistoryDays = 70; p.Seasonality = Weekly; p.HorizonHours = 24 * 8 }),
		mod(func(p *Params) { p.HorizonHours = 6 }), // w > horizon: zero windows
		mod(func(p *Params) { p.HistoryDays = 7; p.WindowSec = 3777; p.SlideSec = 431; p.Confidence = 0.3 }),
		mod(func(p *Params) {
			p.HistoryDays = 33
			p.HorizonHours = 49
			p.WindowSec = 5*3600 + 1
			p.SlideSec = 1201
			p.Confidence = 0.5
		}),
		mod(func(p *Params) { p.WindowSec = 600; p.SlideSec = 3600; p.Confidence = 1.0 / 28 }), // s > w: gaps between windows
		mod(func(p *Params) { p.Confidence = 1 }),
	}
}

// storeAt rebuilds the history a policy.Machine would hold at now: every
// login and logout of the trace up to now, trimmed by Algorithm 3, so the
// lifespan tuple older than h days is there exactly as in production.
func storeAt(tr workload.Trace, h int, now int64) *historystore.Store {
	st := historystore.New()
	for _, iv := range tr.Intervals {
		if iv.Start > now {
			break
		}
		st.Insert(iv.Start, historystore.EventStart)
		if iv.End <= now {
			st.Insert(iv.End, historystore.EventEnd)
		}
	}
	st.DeleteOld(h, now)
	return st
}

// TestPredictMatchesReference is the fidelity gate of the sweep: 20,000
// seeded histories, each evaluated at one instant under one of the
// parameter shapes and compared with == / DeepEqual. Nineteen in twenty
// replay a trace of one of the four region mixes; the rest are uniformly
// random and dense, the regime where every window moves a cursor.
func TestPredictMatchesReference(t *testing.T) {
	histories := 20000
	if testing.Short() {
		histories = 2000
	}
	const (
		span     = 110 // days of trace: enough for h = 70 plus a lifespan tuple
		perTrace = 10  // evaluation instants per trace
	)
	params := differentialParams()
	dense := histories / 20
	regions := workload.RegionNames()
	perRegion := (histories - dense) / len(regions)

	for ri, name := range regions {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof, err := workload.Region(name)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewGenerator(int64(1500+ri), prof)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(2500 + ri)))
			checked := 0
			for _, tr := range gen.Generate(perRegion/perTrace, 0, span*day) {
				for i := 0; i < perTrace; i++ {
					p := params[checked%len(params)]
					now := tr.Birth + rng.Int63n(span*day-tr.Birth+day)
					if i == 0 {
						// Exactly on a login: the policy predicts at the
						// instant it inserts.
						now = tr.Intervals[rng.Intn(len(tr.Intervals))].Start
					}
					checkAgainstReference(t, storeAt(tr, p.HistoryDays, now), p, now)
					checked++
				}
			}
		})
	}

	t.Run("dense", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(3500))
		for checked := 0; checked < dense; checked++ {
			p := params[checked%len(params)]
			now := 1000*day + rng.Int63n(day)
			st := historystore.New()
			for i, n := 0, rng.Intn(1500); i < n; i++ {
				st.Insert(now-rng.Int63n(int64(p.HistoryDays+2)*day), byte(rng.Intn(2)))
			}
			checkAgainstReference(t, st, p, now)
		}
	})
}

// TestSweepBoundaries pins the inclusivity of the window edges — both ends
// closed, as in the range query — at the instants where an off-by-one in
// the sweep's cursors or the grid's window arithmetic would show, and checks
// each case against the reference too.
func TestSweepBoundaries(t *testing.T) {
	const now = 1000 * day
	def := Default() // w = 7 h, s = 5 min, 205 windows, last one starts at 17 h
	w, s := def.WindowSec, def.SlideSec
	last := def.WindowCount() - 1

	type want struct {
		window int
		hits   int   // look-back days with a login inside the window
		first  int64 // FirstLoginOffset
		lastTo int64 // LastLoginOffset
	}
	cases := []struct {
		name    string
		params  func(*Params) // edits Default(); nil keeps it
		windows int           // how many windows Explain reports under the edited params
		logins  []int64
		want    []want
	}{
		{
			name:   "login exactly at winStartPrev",
			logins: []int64{now - 3*day + 10*s},
			want: []want{
				{window: 10, hits: 1, first: 0, lastTo: 0},
				{window: 11, hits: 0}, // the window start has passed it
				{window: 9, hits: 1, first: s, lastTo: s},
			},
		},
		{
			name:   "login exactly at winStartPrev + w",
			logins: []int64{now - 3*day + 10*s + w},
			want: []want{
				{window: 10, hits: 1, first: w, lastTo: w},
				{window: 9, hits: 0}, // one slide earlier the window ends short of it
				{window: 11, hits: 1, first: w - s, lastTo: w - s},
			},
		},
		{
			// off − w is positive and not a multiple of s: the first window
			// to reach the login is ceil((off − w)/s), and a division that
			// rounds down puts it in a window that ends a slide short.
			name:   "login one second past winStartPrev + w",
			logins: []int64{now - 3*day + 10*s + w + 1},
			want: []want{
				{window: 10, hits: 0},
				{window: 11, hits: 1, first: w - s + 1, lastTo: w - s + 1},
			},
		},
		{
			// off < w, so off − w is negative: window 0 already reaches it.
			name:   "login less than w after the look-back start",
			logins: []int64{now - 3*day + 100},
			want: []want{
				{window: 0, hits: 1, first: 100, lastTo: 100},
				{window: 1, hits: 0},
			},
		},
		{
			// now − 3·period is offset 0 of look-back 3 and, the horizon
			// being one period long, the closing instant of look-back 4's
			// last window: both count it.
			name:   "login at now - d*period shared by adjacent look-backs",
			logins: []int64{now - 3*day},
			want: []want{
				{window: 0, hits: 1, first: 0, lastTo: 0},
				{window: 1, hits: 0},
				{window: last - 1, hits: 0},
				{window: last, hits: 1, first: w, lastTo: w},
			},
		},
		{
			// 20 h is past the start of the last window (17 h) but inside
			// its reach (24 h): it is the earliest login at or after the
			// start of every window up to the last, not of none.
			name:   "login past the last window start but inside its reach",
			logins: []int64{now - 3*day + 20*hour},
			want: []want{
				{window: int(13*hour/s) - 1, hits: 0},
				{window: int(13 * hour / s), hits: 1, first: w, lastTo: w},
				{window: last, hits: 1, first: 3 * hour, lastTo: 3 * hour},
			},
		},
		{
			// Algorithm 3 keeps the oldest tuple however old it is; at the
			// same hour as a pattern it must not count as a 29th day.
			name:   "lifespan tuple older than h days",
			logins: []int64{now - 40*day + 9*hour, now - 28*day + 9*hour, now - 1*day + 9*hour},
			want: []want{
				{window: int(9 * hour / s), hits: 2, first: 0, lastTo: 0},
				{window: int(2 * hour / s), hits: 2, first: w, lastTo: w},
			},
		},
		{
			// Look-back 28 starts exactly h days back: a login one second
			// before it belongs to no look-back.
			name:   "login one second before the oldest look-back",
			logins: []int64{now - 28*day - 1, now - 28*day},
			want:   []want{{window: 0, hits: 1, first: 0, lastTo: 0}},
		},
		{
			// A day counts once per window (window 0 holds two logins of
			// day 2), and the first login of a window is the earliest at or
			// after its start, not the earliest seen so far (window 13 has
			// left day 2's 1 h login behind).
			name:   "two logins of one day and one of another in a window",
			logins: []int64{now - 2*day + hour, now - 2*day + 3*hour, now - 5*day + 2*hour},
			want: []want{
				{window: 0, hits: 2, first: hour, lastTo: 3 * hour},
				{window: int(hour/s) + 1, hits: 2, first: hour - s, lastTo: 2*hour - s},
				{window: int(2*hour/s) + 1, hits: 1, first: hour - s, lastTo: hour - s},
			},
		},
		{
			name:    "w not a multiple of s",
			params:  func(p *Params) { p.HistoryDays = 7; p.WindowSec = 3777; p.SlideSec = 431; p.Confidence = 0.3 },
			windows: 192,
			logins:  []int64{now - 2*day + 5000},
			want: []want{
				{window: 2, hits: 0}, // [862, 4639]
				{window: 3, hits: 1, first: 5000 - 1293, lastTo: 5000 - 1293}, // [1293, 5070]
				{window: 11, hits: 1, first: 5000 - 4741, lastTo: 5000 - 4741},
				{window: 12, hits: 0}, // starts at 5172
			},
		},
		{
			// s > w leaves gaps between windows: a login in one lies in no
			// window at all.
			name:    "slide longer than the window",
			params:  func(p *Params) { p.WindowSec = 600; p.SlideSec = 3600 },
			windows: 24,
			logins:  []int64{now - 2*day + 700, now - 4*day + 3600 + 600},
			want: []want{
				{window: 0, hits: 0},
				{window: 1, hits: 1, first: 600, lastTo: 600},
				{window: 2, hits: 0},
			},
		},
		{
			// Horizon longer than the period: look-back ranges overlap, and
			// one login is 30 h into look-back 2 and 6 h into look-back 1.
			name:    "horizon longer than the period",
			params:  func(p *Params) { p.HorizonHours = 36; p.SlideSec = 600 },
			windows: 175,
			logins:  []int64{now - 2*day + 30*hour},
			want: []want{
				{window: 0, hits: 1, first: 6 * hour, lastTo: 6 * hour},
				{window: 36, hits: 1, first: 0, lastTo: 0},
				{window: 37, hits: 0},
				{window: 137, hits: 0},
				{window: 138, hits: 1, first: w, lastTo: w},
				{window: 174, hits: 1, first: hour, lastTo: hour},
			},
		},
		{
			// 1,021 windows: more than the grid keeps on the stack.
			name:    "more windows than the on-stack grid",
			params:  func(p *Params) { p.SlideSec = 60 },
			windows: 1021,
			logins:  []int64{now - 3*day + 600, now - 3*day + 20*hour},
			want: []want{
				{window: 0, hits: 1, first: 600, lastTo: 600},
				{window: 10, hits: 1, first: 0, lastTo: 0},
				{window: 11, hits: 0},
				{window: 1020, hits: 1, first: 3 * hour, lastTo: 3 * hour},
			},
		},
		{
			name:   "window wider than the horizon",
			params: func(p *Params) { p.HorizonHours = 6 },
			logins: []int64{now - 3*day + hour},
		},
		{
			name:   "weekly seasonality with no look-backs",
			params: func(p *Params) { p.Seasonality = Weekly; p.HistoryDays = 6 },
			logins: []int64{now - 3*day + hour},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := def
			if tc.params != nil {
				tc.params(&p)
			} else {
				tc.windows = last + 1
			}
			st := historystore.New()
			for _, l := range tc.logins {
				st.Insert(l, historystore.EventStart)
				st.Insert(l+60, historystore.EventEnd)
			}
			st.DeleteOld(p.HistoryDays, now)
			stats, _, _ := Explain(st, p, now)
			if len(stats) != tc.windows || (tc.windows == 0 && stats != nil) {
				t.Fatalf("Explain returned %d windows (nil=%v), want %d", len(stats), stats == nil, tc.windows)
			}
			for _, w := range tc.want {
				got := stats[w.window]
				wantStat := WindowStat{
					WinStart:         now + int64(w.window)*p.SlideSec,
					Probability:      float64(w.hits) / float64(p.HistoryDays),
					FirstLoginOffset: w.first,
					LastLoginOffset:  w.lastTo,
					Qualifies:        float64(w.hits)/float64(p.HistoryDays) >= p.Confidence,
				}
				got.Selected = false
				if got != wantStat {
					t.Errorf("window %d = %+v, want %+v", w.window, got, wantStat)
				}
			}
			checkAgainstReference(t, st, p, now)
		})
	}
}

// TestPredictDoesNotAllocate holds the sweep's and the grid's scratch on the
// stack for the Table 1 parameters: a later edit that lets it escape, or brings back a
// per-window allocation, fails here rather than in a benchmark nobody reads.
func TestPredictDoesNotAllocate(t *testing.T) {
	st := historystore.New()
	now := 1000 * day
	seedDaily(st, now, 28, 9*hour, 10*hour)
	p := Default()
	if allocs := testing.AllocsPerRun(100, func() { Predict(st, p, now) }); allocs > 0 {
		t.Errorf("Predict allocates %v times per call with default params, want 0", allocs)
	}
	// Explain's only allocation is the []WindowStat it returns, and a caller
	// of ExplainEach that keeps nothing allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() { Explain(st, p, now) }); allocs > 1 {
		t.Errorf("Explain allocates %v times per call with default params, want 1", allocs)
	}
	windows := 0
	if allocs := testing.AllocsPerRun(100, func() { ExplainEach(st, p, now, func(WindowStat) { windows++ }) }); allocs > 0 {
		t.Errorf("ExplainEach allocates %v times per call with default params, want 0", allocs)
	}
	if windows == 0 {
		t.Error("ExplainEach yielded no window")
	}
}

// FuzzPredictMatchesReference lets the fuzzer pick both the history and the
// parameters. The history is decoded from raw bytes (3 per event: a 15-bit
// gap in units of 64 s and the event type) so that mutations move single
// logins; the parameters are clamped to shapes Validate accepts and to a
// scan the reference finishes in milliseconds.
// testdata/fuzz holds further seeds, replayed by plain go test: logins less
// than w into a look-back (the grid's negative ceil numerator), more windows
// than the grid keeps on the stack, and a weekly scan with w, s coprime.
func FuzzPredictMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(28), uint8(24), uint32(7*3600), uint16(300), uint8(10), false, uint32(0))
	f.Add([]byte{1, 0, 0, 0x80, 5, 0, 0x80, 5, 1, 0x80, 5, 0}, uint8(28), uint8(24), uint32(7*3600), uint16(300), uint8(10), false, uint32(3600))
	f.Add([]byte{0xff, 0x7f, 1, 0xff, 0x7f, 0}, uint8(70), uint8(47), uint32(3777), uint16(431), uint8(1), true, uint32(86399))
	f.Add([]byte{0x46, 5, 1, 0x46, 5, 1, 0x46, 5, 1}, uint8(3), uint8(2), uint32(3*3600), uint16(120), uint8(100), false, uint32(7))
	dense := make([]byte, 0, 3*600)
	for i := 0; i < 600; i++ {
		dense = append(dense, byte(i*37), byte(i%3), byte(i))
	}
	f.Add(dense, uint8(14), uint8(30), uint32(2*3600), uint16(900), uint8(40), false, uint32(12345))

	f.Fuzz(func(t *testing.T, events []byte, h, horizonHours uint8, w uint32, s uint16, c uint8, weekly bool, nowOff uint32) {
		p := Params{
			HistoryDays:  1 + int(h)%80,
			HorizonHours: 1 + int(horizonHours)%48,
			Confidence:   float64(1+c%100) / 100,
			SlideSec:     120 + int64(s),
			Seasonality:  Daily,
		}
		// Up to an hour wider than the horizon, so "zero windows" is reachable.
		p.WindowSec = 1 + int64(w)%(int64(p.HorizonHours)*3600+3600)
		if weekly {
			p.Seasonality = Weekly
			p.HistoryDays += 6
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("clamped params invalid: %v", err)
		}

		// The newest event sits up to a day after now: with a horizon
		// longer than the period, look-back 1 reaches past now.
		now := 1000*day + int64(nowOff)%day
		st := historystore.New()
		ts := now + day
		for i := 0; i+2 < len(events) && i < 3*4096; i += 3 {
			gap := int64(events[i]) | int64(events[i+1]&0x7f)<<8
			ts -= gap * 64
			st.Insert(ts, events[i+2]&1)
		}
		checkAgainstReference(t, st, p, now)
	})
}
