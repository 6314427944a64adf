package main

import (
	"path/filepath"
	"time"
)

const (
	// tracedClosedDur is the length of each of the traced run's two closed
	// phases: one with the generator recording a span per op, one without.
	tracedClosedDur = 3 * time.Second
	// openStepDur is the length of one step of the open-loop ladder.
	openStepDur = 2 * time.Second
	// soloDur is the length of durable-pair's run against a primary alone.
	soloDur = 2 * time.Second
)

// openRates are the ladder's offered rates in ops/s: roughly 15, 30 and
// 45 % of the workload's closed-loop capacity on this box.
var openRates = map[string][3]float64{
	wlMemSingle:   {1000, 2000, 3000},
	wlRouted3G:    {500, 1000, 2000},
	wlDurablePair: {100, 200, 300},
	wlSimReplay:   {5000, 10000, 15000},
}

// sloLoginP99 is the open ladder's latency limit on login p99.
func sloLoginP99(workload string) time.Duration {
	if workload == wlDurablePair {
		return 25 * time.Millisecond
	}
	return 5 * time.Millisecond
}

// traced is the traced run: the same set-up as a measured run, then a
// forced snapshot, a closed phase observed at the process boundary, the same
// again with the generator recording spans, the open-loop ladder, a kill and
// restart — and then, with the servers gone, the in-process ladder and the
// storage and engine layers. It reports the per-layer metrics and writes
// the span file.
func traced(workload string, seed int64, sb *sandbox) (*result, error) {
	res := &result{Workload: workload, Metrics: map[string]float64{}}
	m := res.Metrics
	sd, d, err := setup(workload, seed, sb, res)
	if err != nil {
		return nil, err
	}
	defer d.close()
	tr := newTracer(len(d.targets))

	snapDur, snapBytes, err := d.snapshot()
	if err != nil {
		res.problem("snapshot: %v", err)
	}
	m["server.snapshot_ms"] = ms(snapDur)
	m["server.snapshot_bytes"] = snapBytes
	if workload == wlDurablePair {
		// The snapshot compacted the journal under the replica's cursor;
		// let it adopt the new snapshot before anything is timed.
		if err := d.waitReplica(d.procs[1], bootDeadline); err != nil {
			return nil, err
		}
	}

	// Process boundary, tracing off.
	before, err := d.counters()
	if err != nil {
		return nil, err
	}
	cs, err := closedPhase(d, tracedClosedDur, nil)
	if err != nil {
		return nil, err
	}
	res.absorb(&cs.phase, "closed phase")
	after, err := d.counters()
	if err != nil {
		return nil, err
	}
	untraced := bestLoginP50(&cs.phase, nil)
	_, m["loadgen.cpu_us_per_op"] = cs.bestCPUPerOp()
	m["loadgen.closed.login_p99_ms"] = percentile(durationsMS(cs.phase.byKind(opLogin)), 0.99)
	m["admission.shed"] = float64(after.Shed)
	m["breaker.opens"] = after.BreakerTrips + float64(after.OpenBreakers)
	if appends := float64(after.WALAppends - before.WALAppends); appends > 0 {
		m["wal.bytes_per_op"] = (after.WALBytes - before.WALBytes) / appends
		m["wal.fsyncs_per_op"] = float64(after.WALFsyncs-before.WALFsyncs) / appends
	}
	explainedBy := untraced // the closed-phase figure the ladder should explain
	if workload == wlRouted3G {
		local := func(s sample) bool { return sd.Owner(int(s.DB)) == routedGroups[0] }
		proxied := func(s sample) bool { return !local(s) }
		l, p := bestLoginP50(&cs.phase, local), bestLoginP50(&cs.phase, proxied)
		m["server.local_login_p50_us"] = us(l)
		m["server.proxied_login_p50_us"] = us(p)
		m["router.proxy_hop_us"] = us(p - l)
		m["server.scatter_kpi_p50_ms"] = cs.phase.bestQuantileMS(opKPI, 0.50, nil)
		explainedBy = l
	}

	// The same, with the generator recording one span per op.
	ts, err := closedPhase(d, tracedClosedDur, tr)
	if err != nil {
		return nil, err
	}
	res.absorb(&ts.phase, "traced closed phase")
	m["loadgen.trace_overhead_pct"] = 100 * float64(bestLoginP50(&ts.phase, nil)-untraced) / float64(untraced)

	openLadder(workload, d, res)

	if m["server.rss_mb"], err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	checkServers(d, res)
	restart, err := d.killAndRestart()
	if err != nil {
		return nil, err
	}
	m["server.restart_ms"] = ms(restart)
	if workload == wlDurablePair {
		if err := d.verifyAcked(); err != nil {
			res.problem("%v", err)
		}
		c, err := d.counters()
		if err != nil {
			return nil, err
		}
		m["wal.replayed_records"] = float64(c.WALReplayed)
	}
	d.close()

	if workload == wlDurablePair {
		// The same primary with no replica and no quorum to wait for.
		solo, err := boot(workload, sb, sd, seed, true)
		if err != nil {
			return nil, err
		}
		warm := runClosed(solo.targets, solo.stream, warmupDur, nil)
		res.absorb(&warm, "solo warm-up")
		ph := runClosed(solo.targets, solo.stream, soloDur, nil)
		res.absorb(&ph, "solo primary")
		solo.close()
		m["repl.quorum_wait_us"] = us(untraced - bestLoginP50(&ph, nil))
	}

	if err := ladder(workload, sd, seed, sb, tr, res); err != nil {
		return nil, err
	}
	spans := tr.spans()
	ladderMetrics(workload, spans, explainedBy, res)
	if err := storageLayers(sd, sb, m); err != nil {
		return nil, err
	}
	if err := engineLayers(seed, m); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(sb.root, "benchmark", "out", "trace-"+workload+".json"), workload, seed, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// bestLoginP50 is the phase's login p50 in its gated, best-windows form.
func bestLoginP50(p *phase, keep func(sample) bool) time.Duration {
	return time.Duration(p.bestQuantileMS(opLogin, 0.50, keep) * float64(time.Millisecond))
}

// openLadder offers the stream at three fixed rates and reports login
// latency at each, how late the generator itself ran, and the highest rate
// that met the limit with no failure and no backlog.
func openLadder(workload string, d *deployment, res *result) {
	m := res.Metrics
	var lateness []float64
	slo := 0.0
	for i, rate := range openRates[workload] {
		ph, late := runOpen(d.targets, d.stream, rate, openStepDur)
		res.absorb(&ph, "open ladder")
		logins := durationsMS(ph.byKind(opLogin))
		p50ms, p99ms := percentile(logins, 0.50), percentile(logins, 0.99)
		step := "loadgen.open.r" + string(rune('1'+i))
		m[step+".login_p50_ms"] = p50ms
		m[step+".login_p99_ms"] = p99ms
		lateness = append(lateness, durationsMS(late)...)
		if ph.Failed == 0 && ph.Backlog == 0 && p99ms <= ms(sloLoginP99(workload)) {
			slo = rate
		}
	}
	m["loadgen.open.late_p99_ms"] = percentile(lateness, 0.99)
	m["loadgen.open.slo_rps"] = slo
}

// ladderMetrics turns the in-process ladder's spans into the per-layer
// metrics. The server and gate rungs are reported over login ops, the op
// the paper's QoS is about; the fleet rung per op kind. explainedBy is the
// closed-phase login p50 the rungs should add up to.
func ladderMetrics(workload string, spans []span, explainedBy time.Duration, res *result) {
	m := res.Metrics
	login := opLogin.String()
	dur, self := durations(spans, login), selfTimes(spans, login)
	m["server.http_rtt_us"] = us(p50(dur[rungHTTP]))
	m["server.serve_http_us"] = us(p50(dur[rungServe]))
	m["server.net_us"] = us(p50(self[rungHTTP]))
	m["server.self_us"] = us(p50(self[rungServe]))
	m["admission.acquire_ns"] = float64(p50(dur[rungAdmission]))
	m["shardmap.owner_of_ns"] = float64(p50(dur[rungShardmap]))
	m["shardedfleet.login_us"] = us(p50(dur[rungFleet]))
	m["shardedfleet.logout_us"] = us(p50(durations(spans, opLogout.String())[rungFleet]))
	m["shardedfleet.explain_us"] = us(p50(durations(spans, opGet.String())[rungFleet]))
	m["shardedfleet.resume_op_us"] = us(p50(durations(spans, opBeat.String())[rungFleet]))
	if nosync := dur[rungWAL]; len(nosync) > 0 {
		m["wal.append_nosync_us"] = us(p50(nosync))
		m["wal.fsync_us"] = m["wal.append_us"] - m["wal.append_nosync_us"]
	}

	// Every rung must at least cover the rungs below it.
	for name, ds := range selfTimes(spans, "") {
		if s := p50(ds); s < 0 {
			res.problem("ladder: rung %s has negative self time %v", name, s)
		}
	}

	// What the rungs explain of the login the closed phase measured: the
	// in-process round trip — the fleet call alone where there are no
	// sockets — plus the fsync and the quorum wait measured on their own.
	explained := p50(dur[rungHTTP])
	if workload == wlSimReplay {
		explained = p50(dur[rungFleet])
	}
	explainedUS := us(explained) + m["wal.fsync_us"] + m["repl.quorum_wait_us"]
	m["server.unattributed_pct"] = 100 * (us(explainedBy) - explainedUS) / us(explainedBy)
}
