package main

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"prorp"
)

const (
	warmupDur = time.Second
	// simDatabases and simEvalDays size sim-replay's prorp.Simulate: 28
	// history days, one warm-up day and the evaluated days. One run takes
	// about half a second, so a phase holds a dozen and the fastest of them
	// ran while the host was quiet.
	simDatabases = 400
	simEvalDays  = 3
	simDays      = 28 + 1 + simEvalDays
	minSimRuns   = 5
)

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Problems lists every output check that failed; a run is correct when
	// there is none.
	Problems []string
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) absorb(p *phase, what string) {
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	if p.FirstErr != nil {
		r.problem("%s: %d of %d ops failed, first: %v", what, p.Failed, p.Attempted, p.FirstErr)
	}
}

// setup seeds the fleet, boots the workload's topology and warms it up.
func setup(workload string, seed int64, sb *sandbox, res *result) (*seeded, *deployment, error) {
	dir, err := sb.subdir("seed")
	if err != nil {
		return nil, nil, err
	}
	sd, err := seedFleet(seed, fleetSize, seedGroups(workload), dir)
	if err != nil {
		return nil, nil, err
	}
	d, err := boot(workload, sb, sd, seed, false)
	if err != nil {
		return nil, nil, err
	}
	warm := runClosed(d.targets, d.stream, warmupDur, nil)
	res.absorb(&warm, "warm-up")
	return sd, d, nil
}

// closedStats is one closed phase and the CPU clocks sampled alongside it.
type closedStats struct {
	phase phase
	// ticks are the readings of the CPU clocks, one at every window
	// boundary (give or take a millisecond), the first as the phase starts.
	ticks []cpuTick
}

// cpuTick is one reading of the servers' and this process's CPU clocks.
type cpuTick struct {
	at           time.Duration // since the phase started
	server, self time.Duration
}

// closedPhase runs the measured closed loop while a sampler reads the CPU
// clocks of the servers and of this process at every window boundary.
func closedPhase(d *deployment, dur time.Duration, tr *tracer) (closedStats, error) {
	var (
		cs      closedStats
		tickErr error
		done    = make(chan struct{})
	)
	start := time.Now()
	tick := func() {
		server, err := d.serverCPU()
		if err != nil {
			tickErr = err
		}
		cs.ticks = append(cs.ticks, cpuTick{at: time.Since(start), server: server, self: selfCPU()})
	}
	tick()
	go func() {
		defer close(done)
		for next := window; next <= dur; next += window {
			time.Sleep(time.Until(start.Add(next)))
			tick()
		}
	}()
	cs.phase = runClosed(d.targets, d.stream, dur, tr)
	<-done
	return cs, tickErr
}

// bestCPUPerOp is the CPU time per completed op (us) over the phase's best
// windows, for the servers and for this process. /proc/<pid>/stat counts in
// 10 ms ticks: over the dozen quarter-seconds of a 20 s phase's best
// twentieth that resolves to about 1 %.
func (cs *closedStats) bestCPUPerOp() (server, self float64) {
	counts := make([]int, len(cs.ticks)-1)
	for _, s := range cs.phase.Samples {
		if i := int(s.End / window); i < len(counts) {
			counts[i]++
		}
	}
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return counts[b] - counts[a] })
	var ops int
	var srv, slf time.Duration
	for _, i := range order[:max(len(order)/bestShare, 1)] {
		ops += counts[i]
		srv += cs.ticks[i+1].server - cs.ticks[i].server
		slf += cs.ticks[i+1].self - cs.ticks[i].self
	}
	return us(srv) / float64(ops), us(slf) / float64(ops)
}

// endToEndMetrics fills the figures a closed phase yields, each over the
// phase's best windows (see rankedWindows for why).
func endToEndMetrics(cs *closedStats, m map[string]float64) {
	p := &cs.phase
	m["capacity_rps"] = p.bestRate()
	m["login_p50_ms"] = p.bestQuantileMS(opLogin, 0.50, nil)
	m["logout_tmean_ms"] = p.bestTrimmedMeanMS(opLogout, logoutTrim)
	m["get_p50_ms"] = p.bestQuantileMS(opGet, 0.50, nil)
	m["beat_p50_ms"] = p.bestQuantileMS(opBeat, 0.50, nil)
	m["server_cpu_us_per_op"], _ = cs.bestCPUPerOp()
}

// simulate runs prorp.Simulate over and over for at least budget (and at
// least minSimRuns times), checks that every report is identical, and
// returns the fastest run's wall time.
func simulate(seed int64, budget time.Duration, res *result) (time.Duration, error) {
	cfg := prorp.SimulationConfig{Region: seedRegion, Databases: simDatabases, EvalDays: simEvalDays, Seed: seed}
	var (
		first prorp.Report
		best  time.Duration
	)
	for start, runs := time.Now(), 0; runs < minSimRuns || time.Since(start) < budget; runs++ {
		t0 := time.Now()
		rep, err := prorp.Simulate(cfg)
		if err != nil {
			return 0, err
		}
		if wall := time.Since(t0); runs == 0 || wall < best {
			best = wall
		}
		if runs == 0 {
			first = rep
		} else if !reflect.DeepEqual(rep, first) {
			res.problem("simulate: run %d reported\n%v\nbut run 1 reported\n%v", runs+1, rep, first)
		}
	}
	return best, nil
}

// measure is a run with tracing off: set up once, run the closed phase,
// check the outputs, report the end-to-end metrics.
func measure(workload string, seed int64, seconds int, sb *sandbox) (*result, error) {
	res := &result{Workload: workload, Metrics: map[string]float64{}}
	t0 := time.Now()
	sd, d, err := setup(workload, seed, sb, res)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.Metrics["setup_s"] = time.Since(t0).Seconds()

	// sim-replay splits its time between the op stream and the simulator.
	dur := time.Duration(seconds) * time.Second
	if workload == wlSimReplay {
		dur /= 2
	}
	cs, err := closedPhase(d, dur, nil)
	if err != nil {
		return nil, err
	}
	res.absorb(&cs.phase, "closed phase")
	endToEndMetrics(&cs, res.Metrics)

	checkServers(d, res)
	if workload == wlDurablePair {
		if _, err := d.killAndRestart(); err != nil {
			return nil, err
		}
		if err := d.verifyAcked(); err != nil {
			res.problem("%v", err)
		}
	}

	// The policy's KPIs over the seeded 29 days are the same on every
	// workload: an exact oracle a change to Algorithm 4 must not move.
	res.Metrics["qos_warm_pct"] = sd.Acct.qosWarmPct()
	res.Metrics["cogs_idle_pct"] = sd.Acct.cogsIdlePct()
	res.Metrics["sim_dbdays_per_s"] = sd.ReplayRate
	if workload == wlSimReplay {
		wall, err := simulate(seed, dur, res)
		if err != nil {
			return nil, err
		}
		res.Metrics["sim_dbdays_per_s"] = simDatabases * simDays / wall.Seconds()
	}
	return res, nil
}

// checkServers fails the run if the servers shed load or tripped a breaker:
// the workloads are sized so that neither happens, and a latency measured
// while they do is a latency of something else.
func checkServers(d *deployment, res *result) {
	c, err := d.counters()
	if err != nil {
		res.problem("%v", err)
		return
	}
	if c.Shed != 0 {
		res.problem("admission shed %d requests", c.Shed)
	}
	if c.OpenBreakers != 0 || c.BreakerTrips != 0 {
		res.problem("%d breakers open, %v trips", c.OpenBreakers, c.BreakerTrips)
	}
}
