package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"prorp"
	"prorp/internal/server"
	"prorp/internal/shardmap"
	"prorp/internal/workload"
)

const (
	fleetSize     = 16000
	seedRegion    = "EU1"
	secondsPerDay = 24 * 3600
	// virtualNow is where the trace stops: day 29, 09:30 — the 28 look-back
	// days Algorithm 4 scans plus one, early in the office morning.
	virtualNow = 29*secondsPerDay + 9*3600 + 30*60
)

// callers is the number of concurrent closed loops, open-loop workers and
// seeding goroutines: 2, the sandbox's core count, and never more than the
// machine has.
func callers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// seedAcct is the policy-level outcome of replaying the trace: the paper's
// QoS and idle KPIs over the 29 seeded days, with no Algorithm 5 beats (the
// replay runs no control plane, so every resume is a login's).
type seedAcct struct {
	Warm, Cold        int
	IdleSec, TotalSec int64
}

func (a *seedAcct) add(b seedAcct) {
	a.Warm += b.Warm
	a.Cold += b.Cold
	a.IdleSec += b.IdleSec
	a.TotalSec += b.TotalSec
}

func (a seedAcct) qosWarmPct() float64 {
	return 100 * float64(a.Warm) / float64(a.Warm+a.Cold)
}

func (a seedAcct) cogsIdlePct() float64 {
	return 100 * float64(a.IdleSec) / float64(a.TotalSec)
}

// seedTraces generates the fleet's trace on the virtual axis [0, virtualNow).
func seedTraces(seed int64, n int) ([]workload.Trace, error) {
	prof, err := workload.Region(seedRegion)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(seed, prof)
	if err != nil {
		return nil, err
	}
	return gen.Generate(n, 0, virtualNow), nil
}

// replayTrace feeds one database's trace to its fleet — Create, then
// Idle/Login per interval, with every decision's WakeAt honoured before the
// next event — on the wall-clock axis virtual+shift. An interval the
// generator clipped at virtualNow is still open: the database is active at
// seed time and gets no Idle.
func replayTrace(f *prorp.ShardedFleet, tr workload.Trace, shift int64, acct *seedAcct) (active bool, err error) {
	at := func(v int64) time.Time { return time.Unix(v+shift, 0) }
	if err := f.Create(tr.DB, at(tr.Birth)); err != nil {
		return false, err
	}
	var wake, pausedAt int64 // virtual seconds; 0 = none
	apply := func(d prorp.Decision, t int64) {
		wake = 0
		if !d.WakeAt.IsZero() {
			wake = d.WakeAt.Unix() - shift
		}
		switch d.Event {
		case prorp.EventLogicalPause:
			pausedAt = t
		case prorp.EventResumeWarm, prorp.EventPhysicalPause:
			if pausedAt != 0 {
				acct.IdleSec += t - pausedAt
				pausedAt = 0
			}
		}
		switch d.Event {
		case prorp.EventResumeWarm:
			acct.Warm++
		case prorp.EventResumeCold:
			acct.Cold++
		}
	}
	drainWakes := func(until int64) error {
		for wake != 0 && wake <= until {
			t := wake
			d, err := f.Wake(tr.DB, at(t))
			if err != nil {
				return err
			}
			apply(d, t)
		}
		return nil
	}
	for i, iv := range tr.Intervals {
		if i > 0 {
			if err := drainWakes(iv.Start); err != nil {
				return false, err
			}
			d, err := f.Login(tr.DB, at(iv.Start))
			if err != nil {
				return false, err
			}
			apply(d, iv.Start)
		}
		if iv.End >= virtualNow {
			active = true
			break
		}
		d, err := f.Idle(tr.DB, at(iv.End))
		if err != nil {
			return false, err
		}
		apply(d, iv.End)
	}
	if err := drainWakes(virtualNow); err != nil {
		return false, err
	}
	if pausedAt != 0 {
		acct.IdleSec += virtualNow - pausedAt
	}
	acct.TotalSec += virtualNow - tr.Birth
	return active, nil
}

// rateChunk is how many databases a seeding worker replays per throughput
// reading: some 0.2 s of work, long enough to average over the archetype
// mix and short enough that some chunk runs while the host is quiet.
const rateChunk = 250

// replayAll replays every trace into the fleet fleetFor names, split across
// the callers. Databases are independent until a beat runs, and none does
// here, so the order across databases does not matter. bestRate is the
// replay throughput in database-days per second: the sum over the workers
// of each worker's fastest chunk.
func replayAll(traces []workload.Trace, shift int64, fleetFor func(id int) *prorp.ShardedFleet) (active []bool, acct seedAcct, bestRate float64, err error) {
	active = make([]bool, len(traces))
	workers := callers()
	accts := make([]seedAcct, workers)
	rates := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunkStart, chunkFrom, inChunk := time.Now(), int64(0), 0
			for i := w; i < len(traces); i += workers {
				a, err := replayTrace(fleetFor(traces[i].DB), traces[i], shift, &accts[w])
				if err != nil {
					errs[w] = fmt.Errorf("seeding database %d: %w", traces[i].DB, err)
					return
				}
				active[traces[i].DB] = a
				if inChunk++; inChunk == rateChunk {
					days := float64(accts[w].TotalSec-chunkFrom) / secondsPerDay
					rates[w] = max(rates[w], days/time.Since(chunkStart).Seconds())
					chunkStart, chunkFrom, inChunk = time.Now(), accts[w].TotalSec, 0
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range accts {
		acct.add(accts[w])
		bestRate += rates[w]
		if errs[w] != nil && err == nil {
			err = errs[w]
		}
	}
	return active, acct, bestRate, err
}

// seeded is one seeded fleet on disk.
type seeded struct {
	// Snapshots maps group name to its PRS2 snapshot file ("" = the single
	// unpartitioned group).
	Snapshots map[string]string
	// Owner names the group a database lives in.
	Owner func(id int) string
	// Active marks the databases with a session open at seed time.
	Active []bool
	// Now is the wall-clock instant virtualNow was pinned to.
	Now  time.Time
	Acct seedAcct
	// ReplayRate is the replay's throughput in database-days per second
	// (see replayAll).
	ReplayRate float64
}

// seedFleet generates the trace for seed, replays it in process and has
// server.Server itself persist the result: one snapshot per group under dir
// (groups nil = one unpartitioned server). Trace time is shifted so that
// virtualNow is the wall clock's now: the generator is anchored to day
// boundaries but predictor.Predict is relative to now, so every run sees the
// fleet at the same phase of its day whenever it starts.
func seedFleet(seed int64, n int, groups []string, dir string) (*seeded, error) {
	traces, err := seedTraces(seed, n)
	if err != nil {
		return nil, err
	}
	out := &seeded{Snapshots: map[string]string{}, Owner: func(int) string { return "" }}
	names := groups
	if len(groups) == 0 {
		names = []string{""}
	} else {
		m, err := shardmap.New(groups)
		if err != nil {
			return nil, err
		}
		out.Owner = m.OwnerOf
	}
	servers := make(map[string]*server.Server, len(names))
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	for _, g := range names {
		path := filepath.Join(dir, "seed"+g+".snap")
		srv, err := server.New(server.Config{SnapshotPath: path, SnapshotEvery: time.Hour})
		if err != nil {
			return nil, fmt.Errorf("seeding server %q: %w", g, err)
		}
		servers[g] = srv
		out.Snapshots[g] = path
	}
	out.Now = time.Now()
	shift := out.Now.Unix() - virtualNow
	out.Active, out.Acct, out.ReplayRate, err = replayAll(traces, shift, func(id int) *prorp.ShardedFleet {
		return servers[out.Owner(id)].Fleet()
	})
	if err != nil {
		return nil, err
	}
	for g, srv := range servers {
		delete(servers, g)
		if err := srv.Close(); err != nil {
			return nil, fmt.Errorf("persisting seed %q: %w", g, err)
		}
	}
	return out, nil
}
