package predictor

import (
	"fmt"
	"strings"

	"prorp/internal/historystore"
)

// WindowStat describes one candidate window of an Algorithm 4 scan: the
// observability view behind "why did/didn't this database get a
// prediction". Production debugging of the proactive policy needs exactly
// this (the paper's diagnostics principle, Section 7).
type WindowStat struct {
	// WinStart is the window's start time.
	WinStart int64
	// Probability is windows-with-activity / lookbacks for this window.
	Probability float64
	// FirstLoginOffset / LastLoginOffset are the earliest and latest login
	// offsets within the window across the lookbacks; valid when
	// Probability > 0.
	FirstLoginOffset int64
	LastLoginOffset  int64
	// Qualifies reports Probability >= confidence.
	Qualifies bool
	// Selected marks the window whose activity Predict returns.
	Selected bool
}

// Explain scans every candidate window over the horizon (no early break,
// unlike Predict) and reports per-window statistics plus the prediction
// Predict would make. It reads the look-back logins once (see grid): the
// serving tier runs it behind every GET /v1/db/{id}?windows=.
func Explain(st *historystore.Store, p Params, now int64) ([]WindowStat, Activity, bool) {
	var stats []WindowStat
	pred, ok := ExplainEach(st, p, now, func(ws WindowStat) {
		if stats == nil {
			stats = make([]WindowStat, 0, p.WindowCount())
		}
		stats = append(stats, ws)
	})
	return stats, pred, ok
}

// ExplainEach is Explain handing each window's statistics to yield, in scan
// order, instead of collecting them: a caller that converts them to a type
// of its own allocates that slice only.
func ExplainEach(st *historystore.Store, p Params, now int64, yield func(WindowStat)) (Activity, bool) {
	var scratch [stackWindows]gridWin
	g := newGrid(st, p, now, scratch[:0])

	// Predict's choice first, so that the pass below can mark it: the rule
	// of sweep.predict over the same triples, up to the window that scan
	// breaks at. Without look-backs the grid is empty: no prediction, no
	// statistics.
	var (
		pred     Activity
		prevProb float64
	)
	for k := range g.wins {
		hits, first, last := g.window(k)
		prob := float64(hits) / float64(g.lookbacks)
		if p.Confidence <= prob && (prevProb < prob || pred.IsZero()) {
			prevProb = prob
			winStart := now + int64(k)*p.SlideSec
			pred = Activity{Start: winStart + first, End: winStart + last}
		} else if !pred.IsZero() {
			break
		}
	}
	ok := !pred.IsZero()

	selected := false
	winStart := now
	for k := range g.wins {
		hits, first, last := g.window(k)
		ws := WindowStat{
			WinStart:         winStart,
			Probability:      float64(hits) / float64(g.lookbacks),
			FirstLoginOffset: first,
			LastLoginOffset:  last,
		}
		ws.Qualifies = ws.Probability >= p.Confidence
		if ok && !selected && ws.Qualifies && winStart+first == pred.Start {
			ws.Selected, selected = true, true
		}
		if hits == 0 {
			ws.FirstLoginOffset = 0
		}
		yield(ws)
		winStart += p.SlideSec
	}
	return pred, ok
}

// RenderExplain formats the qualifying windows of an Explain scan as a
// table (non-qualifying windows are summarized, not listed).
func RenderExplain(stats []WindowStat, pred Activity, ok bool) string {
	var b strings.Builder
	qualifying := 0
	for _, s := range stats {
		if s.Qualifies {
			qualifying++
		}
	}
	fmt.Fprintf(&b, "prediction scan: %d windows, %d qualifying\n", len(stats), qualifying)
	if ok {
		fmt.Fprintf(&b, "prediction: start=%d end=%d\n", pred.Start, pred.End)
	} else {
		fmt.Fprintf(&b, "prediction: none\n")
	}
	fmt.Fprintf(&b, "%12s %12s %10s %10s %9s\n", "win-start", "probability", "first-off", "last-off", "selected")
	for _, s := range stats {
		if !s.Qualifies {
			continue
		}
		fmt.Fprintf(&b, "%12d %12.3f %10d %10d %9v\n",
			s.WinStart, s.Probability, s.FirstLoginOffset, s.LastLoginOffset, s.Selected)
	}
	return b.String()
}
