// Package predictor implements the probabilistic next-activity prediction
// of Section 6 of the ProRP paper (Algorithm 4, sys.PredictNextActivity).
//
// The algorithm slides a window of w seconds every s seconds across the
// prediction horizon. For each candidate window it inspects the same window
// on each of the previous h days (or weeks, for weekly seasonality) and
// counts how many of them contained at least one login. The ratio of
// windows-with-activity to lookbacks is the probability of activity. The
// earliest window whose probability clears the confidence threshold yields
// the prediction; while the probability keeps strictly increasing over
// subsequent overlapping windows the prediction is refined, and the scan
// stops at the first non-improving window (the paper's "earliest start with
// the highest confidence" rule, Figure 5).
//
// The paper writes the scan as one range query per window per look-back;
// this package executes it two ways, both returning the same Activity as the
// literal scan for every history and parameter set. Predict, which breaks at
// the first non-improving window, slides a pair of cursors per look-back day
// and reads only as far as the scan gets (see sweep). Explain, which reports
// every window and so never breaks, reads the look-back logins once into a
// per-window grid (see grid). Which one runs follows from what the caller
// can observe, not from an option. The literal scan lives on in the
// package's tests as the oracle both are compared against.
package predictor

import (
	"fmt"

	"prorp/internal/historystore"
)

// Seasonality selects the repetition period the detector assumes.
type Seasonality int

const (
	// Daily looks at the same time window on each of the previous h days.
	Daily Seasonality = iota
	// Weekly looks at the same window on the same weekday of each of the
	// previous h/7 weeks.
	Weekly
)

func (s Seasonality) String() string {
	switch s {
	case Daily:
		return "daily"
	case Weekly:
		return "weekly"
	default:
		return fmt.Sprintf("Seasonality(%d)", int(s))
	}
}

// Params are the tunable knobs of Algorithm 4 (Table 1 of the paper).
type Params struct {
	// HistoryDays is h: how many days of history the detector inspects.
	HistoryDays int
	// HorizonHours is p: how far ahead activity is predicted.
	HorizonHours int
	// Confidence is c: the minimum probability of activity per window.
	Confidence float64
	// WindowSec is w: the sliding window length in seconds.
	WindowSec int64
	// SlideSec is s: the window slide in seconds.
	SlideSec int64
	// Seasonality selects daily or weekly pattern detection.
	Seasonality Seasonality
}

// Default returns the production defaults of Table 1: h = 28 days,
// p = 1 day, c = 0.1, w = 7 hours, s = 5 minutes, daily seasonality.
func Default() Params {
	return Params{
		HistoryDays:  28,
		HorizonHours: 24,
		Confidence:   0.1,
		WindowSec:    7 * 3600,
		SlideSec:     5 * 60,
		Seasonality:  Daily,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.HistoryDays <= 0 {
		return fmt.Errorf("predictor: history days %d, want > 0", p.HistoryDays)
	}
	if p.HorizonHours <= 0 {
		return fmt.Errorf("predictor: horizon hours %d, want > 0", p.HorizonHours)
	}
	if p.Confidence <= 0 || p.Confidence > 1 {
		return fmt.Errorf("predictor: confidence %v, want in (0, 1]", p.Confidence)
	}
	if p.WindowSec <= 0 {
		return fmt.Errorf("predictor: window %d s, want > 0", p.WindowSec)
	}
	if p.SlideSec <= 0 {
		return fmt.Errorf("predictor: slide %d s, want > 0", p.SlideSec)
	}
	if p.Seasonality != Daily && p.Seasonality != Weekly {
		return fmt.Errorf("predictor: unknown seasonality %d", int(p.Seasonality))
	}
	if p.Seasonality == Weekly && p.HistoryDays < 7 {
		return fmt.Errorf("predictor: weekly seasonality needs >= 7 history days, have %d", p.HistoryDays)
	}
	return nil
}

// period returns the seasonality repetition period in seconds and the
// number of lookbacks the history affords.
func (p Params) period() (periodSec int64, lookbacks int) {
	switch p.Seasonality {
	case Weekly:
		return 7 * historystore.SecondsPerDay, p.HistoryDays / 7
	default:
		return historystore.SecondsPerDay, p.HistoryDays
	}
}

// Activity is a predicted activity interval. A zero Activity means "no
// activity predicted", matching nextActivity.start = 0 in Algorithm 1.
type Activity struct {
	Start int64 // predicted start of customer activity (epoch seconds)
	End   int64 // predicted end of customer activity
}

// IsZero reports whether no activity was predicted.
func (a Activity) IsZero() bool { return a.Start == 0 && a.End == 0 }

// Predict runs Algorithm 4 against the history of one database. It returns
// the predicted next activity within the horizon and ok = false when no
// window clears the confidence threshold.
func Predict(st *historystore.Store, p Params, now int64) (Activity, bool) {
	var scratch [stackDays]dayScan
	sw := newSweep(st, p, now, scratch[:0])
	return sw.predict(p, now)
}

// predict is the window loop of Algorithm 4 over a fresh sweep.
func (sw *sweep) predict(p Params, now int64) (Activity, bool) {
	lookbacks := len(sw.days)
	if lookbacks == 0 {
		return Activity{}, false
	}

	winStart := now
	predEnd := now + int64(p.HorizonHours)*3600

	var (
		pred     Activity
		prevProb float64
	)

	for winStart+p.WindowSec <= predEnd {
		winWithActivity, firstLoginPerWin, lastLoginPerWin := sw.window()

		prob := float64(winWithActivity) / float64(lookbacks)
		if p.Confidence <= prob && (prevProb < prob || pred.IsZero()) {
			prevProb = prob
			pred = Activity{
				Start: winStart + firstLoginPerWin,
				End:   winStart + lastLoginPerWin,
			}
		} else if !pred.IsZero() {
			// Algorithm 4 line 46: once a qualifying window has been found,
			// the first non-improving window ends the scan — the earliest
			// start with the highest confidence wins.
			break
		}
		winStart += p.SlideSec
	}
	return pred, !pred.IsZero()
}

// WindowCount returns how many candidate windows one Predict call scans in
// the worst case: p/s per the paper's complexity analysis (Section 6).
func (p Params) WindowCount() int {
	horizon := int64(p.HorizonHours) * 3600
	if p.WindowSec > horizon {
		return 0
	}
	return int((horizon-p.WindowSec)/p.SlideSec) + 1
}
