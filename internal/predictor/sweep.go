package predictor

import (
	"math"

	"prorp/internal/historystore"
)

// noLogin is the offset of an exhausted cursor: later than any window.
const noLogin = math.MaxInt64

// stackDays is how many look-back days of scan state Predict keeps on its
// own stack frame; the Table 1 default (h = 28) fits, so the hot path does
// not allocate. Longer histories take one heap slice.
const stackDays = 32

// dayScan is what the sweep keeps per look-back day. Times are offsets on
// the scan axis of that day, seconds after base = now − day·period, so the
// k-th candidate window covers [k·s, k·s + w] on every day at once.
type dayScan struct {
	base int64

	// enter is the next login to come into the window as it slides; leave
	// is the earliest login the window start has not passed yet, i.e. the
	// day's first login inside the window whenever it is at or before the
	// window end.
	enter, leave historystore.LoginCursor

	// lastOff is the latest login that has entered: the day's last login
	// inside the window whenever the day has one.
	lastOff int64
}

// offset is the login under c on the day's scan axis, noLogin once c is
// exhausted.
func (d *dayScan) offset(c historystore.LoginCursor) int64 {
	t, ok := c.Time()
	if !ok {
		return noLogin
	}
	return t - d.base
}

// sweep evaluates the candidate windows of one Algorithm 4 scan in order,
// reading only as far as the scan gets: Predict's execution, which breaks at
// the first non-improving window — on a dense history after a handful — and
// must not pay for the logins behind the rest of the horizon. The paper
// states the scan as p/s windows × h range queries; the windows of one
// look-back day are the same interval sliding right, so instead of
// re-querying, each day holds two cursors on the history's leaf chain and
// every login is stepped over at most twice per scan. Every window looks at
// every day: O(h·log n + m' + k·h) for a scan that breaks after k windows
// having passed m' logins, against O(k · h · (log n + m)) as written. Explain
// visits all p/s windows and runs on the grid instead.
type sweep struct {
	days []dayScan
	w, s int64

	next int64 // start offset of the window the next call to window returns
}

// newSweep positions one pair of cursors per look-back day at now − d·period
// (h B-tree descents in all). days is caller-supplied scratch.
func newSweep(st *historystore.Store, p Params, now int64, days []dayScan) sweep {
	periodSec, lookbacks := p.period()
	if lookbacks > cap(days) {
		days = make([]dayScan, 0, lookbacks)
	}
	for prevDay := 1; prevDay <= lookbacks; prevDay++ {
		d := dayScan{base: now - int64(prevDay)*periodSec}
		d.enter = st.SeekLogin(d.base)
		d.leave = d.enter
		days = append(days, d)
	}
	return sweep{days: days, w: p.WindowSec, s: p.SlideSec}
}

// window slides every day's cursors to the next candidate window and
// returns what Algorithm 4 lines 15-35 compute for it: how many look-back
// days have a login inside it, and the earliest and latest such login as
// offsets from the window start (w and 0 when there is none, the paper's
// initial values).
func (sw *sweep) window() (winWithActivity int, firstLoginPerWin, lastLoginPerWin int64) {
	lo, hi := sw.next, sw.next+sw.w // inclusive both ends, like the range query
	sw.next += sw.s
	firstOff, lastOff := int64(noLogin), int64(0)
	for i := range sw.days {
		d := &sw.days[i]
		for off := d.offset(d.enter); off <= hi; off = d.offset(d.enter) {
			d.lastOff = off
			d.enter.Next()
		}
		for d.offset(d.leave) < lo {
			d.leave.Next()
		}
		if off := d.offset(d.leave); off <= hi {
			winWithActivity++
			firstOff = min(firstOff, off)
			lastOff = max(lastOff, d.lastOff)
		}
	}
	if winWithActivity == 0 {
		return 0, sw.w, 0
	}
	return winWithActivity, firstOff - lo, lastOff - lo
}
