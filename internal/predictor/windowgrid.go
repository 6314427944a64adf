package predictor

// This file sorts after sweep.go on purpose. The toolchain lays a package's
// functions out in file order, and ahead of Predict's the 1,760 bytes of
// newGrid moved them, instruction for instruction the same, to the other
// half of their 64-byte lines: prorp.Simulate ran 12 % slower in ten pairs
// of ten (EXPERIMENTS.md, "Algorithm 4's explain scan as a grid").

import "prorp/internal/historystore"

// stackWindows is how many candidate windows of grid state Explain keeps on
// its own stack frame; the Table 1 default scans 205, so the GET path does
// not allocate for the scan. Finer slides take one heap slice, like
// stackDays.
const stackWindows = 256

// gridWin is what the grid holds per candidate window once it is built.
// While it is being filled the fields are the raw buckets the running sums
// of newGrid turn into these.
type gridWin struct {
	hits  int   // look-back days with a login inside the window
	first int64 // earliest login at or after the window start, as a day offset
	last  int64 // latest login at or before the window end, as a day offset
}

// grid is the full-horizon execution of an Algorithm 4 scan: Explain's,
// which never breaks and so visits all p/s windows. Candidate window k is
// the fixed interval [k·s, k·s + w] on every look-back day's scan axis (see
// dayScan), so which windows a login at offset off falls in is arithmetic —
// ceil((off − w)/s) … floor(off/s) — and one read of the look-back logins
// settles every window at once: O(h·log n + m + p/s), where the sweep pays
// p/s·h comparisons to visit them all. window returns the same triple as
// sweep.window, in O(1).
type grid struct {
	wins []gridWin
	w, s int64

	lookbacks int
}

// newGrid reads the logins of every look-back day once (h B-tree descents,
// one step per login) and accumulates them per window. wins is
// caller-supplied scratch.
func newGrid(st *historystore.Store, p Params, now int64, wins []gridWin) grid {
	periodSec, lookbacks := p.period()
	k := p.WindowCount()
	g := grid{w: p.WindowSec, s: p.SlideSec, lookbacks: lookbacks}
	if lookbacks == 0 || k == 0 {
		return g
	}
	if k > cap(wins) {
		wins = make([]gridWin, k)
	}
	wins = wins[:k]
	for i := range wins {
		wins[i] = gridWin{first: noLogin}
	}

	// The last window ends at reach; every day reads its own
	// [base, base + reach], whether or not a horizon longer than the period
	// makes neighbouring days' ranges overlap.
	reach := int64(k-1)*g.s + g.w
	for prevDay := 1; prevDay <= lookbacks; prevDay++ {
		base := now - int64(prevDay)*periodSec
		// A day counts once per window however many of its logins the
		// window holds: counted is the first window this day has not been
		// counted in yet. Logins come in order, so both ends of their
		// window ranges only move right.
		counted := 0
		for c := st.SeekLogin(base); ; c.Next() {
			t, ok := c.Time()
			if !ok || t-base > reach {
				break
			}
			off := t - base
			// The login lies in windows lo … hi. off ≤ reach keeps lo
			// within the grid; hi runs past it for a login beyond the last
			// window's start. A numerator at or below zero means window 0
			// already reaches the login (Go's / would round it up to 0
			// anyway, but for a positive one rounds the wrong way).
			lo, hi := 0, min(int(off/g.s), k-1)
			if off > g.w {
				lo = int((off - g.w + g.s - 1) / g.s)
			}
			wins[hi].first = min(wins[hi].first, off)
			wins[lo].last = max(wins[lo].last, off)
			if lo = max(lo, counted); lo <= hi { // s > w leaves gaps: lo > hi
				wins[lo].hits++
				if hi+1 < k {
					wins[hi+1].hits--
				}
				counted = hi + 1
			}
		}
	}

	// hits is a difference array, last buckets each login at the first
	// window that reaches it, first at the last window that starts at or
	// before it: running sum, running max, and a running min from the right.
	hits, last := 0, int64(0)
	for i := range wins {
		hits += wins[i].hits
		last = max(last, wins[i].last)
		wins[i].hits, wins[i].last = hits, last
	}
	first := int64(noLogin)
	for i := k - 1; i >= 0; i-- {
		first = min(first, wins[i].first)
		wins[i].first = first
	}
	g.wins = wins
	return g
}

// window returns for candidate window k what sweep.window returns for it.
// The earliest login at or after the window start and the latest at or
// before its end are both inside it whenever any login is.
func (g *grid) window(k int) (winWithActivity int, firstLoginPerWin, lastLoginPerWin int64) {
	win := &g.wins[k]
	if win.hits == 0 {
		return 0, g.w, 0
	}
	lo := int64(k) * g.s
	return win.hits, win.first - lo, win.last - lo
}
