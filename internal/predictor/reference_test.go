package predictor

import "prorp/internal/historystore"

// predictReference is Algorithm 4 as the paper writes it and as Predict
// executed it until the sweep replaced it: p/s sliding windows, each
// issuing one FirstLastLogin range query per look-back. It is kept
// verbatim as the oracle the differential and fuzz tests compare the
// shipped sweep against; it must not be "optimised".
func predictReference(st *historystore.Store, p Params, now int64) (Activity, bool) {
	periodSec, lookbacks := p.period()
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
		winWithActivity := 0
		firstLoginPerWin := p.WindowSec // offset within the window
		lastLoginPerWin := int64(0)

		for prevDay := 1; prevDay <= lookbacks; prevDay++ {
			winStartPrev := winStart - int64(prevDay)*periodSec
			winEndPrev := winStartPrev + p.WindowSec
			first, last, ok := st.FirstLastLogin(winStartPrev, winEndPrev)
			if !ok {
				continue
			}
			if off := first - winStartPrev; off < firstLoginPerWin {
				firstLoginPerWin = off
			}
			if off := last - winStartPrev; off > lastLoginPerWin {
				lastLoginPerWin = off
			}
			winWithActivity++
		}

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

// explainReference is the literal full-horizon scan Explain executed
// before the sweep: every window, every look-back, one range query each.
func explainReference(st *historystore.Store, p Params, now int64) ([]WindowStat, Activity, bool) {
	periodSec, lookbacks := p.period()
	if lookbacks == 0 {
		return nil, Activity{}, false
	}
	pred, ok := predictReference(st, p, now)

	var stats []WindowStat
	winStart := now
	predEnd := now + int64(p.HorizonHours)*3600
	for winStart+p.WindowSec <= predEnd {
		ws := WindowStat{WinStart: winStart, FirstLoginOffset: p.WindowSec}
		hits := 0
		for prevDay := 1; prevDay <= lookbacks; prevDay++ {
			lo := winStart - int64(prevDay)*periodSec
			hi := lo + p.WindowSec
			first, last, any := st.FirstLastLogin(lo, hi)
			if !any {
				continue
			}
			if off := first - lo; off < ws.FirstLoginOffset {
				ws.FirstLoginOffset = off
			}
			if off := last - lo; off > ws.LastLoginOffset {
				ws.LastLoginOffset = off
			}
			hits++
		}
		ws.Probability = float64(hits) / float64(lookbacks)
		ws.Qualifies = ws.Probability >= p.Confidence
		if ok && winStart+ws.FirstLoginOffset == pred.Start && ws.Qualifies && !selectedMarkedReference(stats) {
			ws.Selected = true
		}
		if hits == 0 {
			ws.FirstLoginOffset = 0
		}
		stats = append(stats, ws)
		winStart += p.SlideSec
	}
	return stats, pred, ok
}

func selectedMarkedReference(stats []WindowStat) bool {
	for _, s := range stats {
		if s.Selected {
			return true
		}
	}
	return false
}
