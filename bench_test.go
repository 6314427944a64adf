package prorp

// Benchmark harness: one testing.B benchmark per table/figure of the ProRP
// paper's evaluation (Section 9), each regenerating its experiment at a
// CI-friendly scale and reporting the headline KPI values as custom
// metrics. The full-scale runs (paper-shaped numbers, recorded in
// EXPERIMENTS.md) are produced by `go run ./cmd/prorp-bench`.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prorp/internal/experiments"
	"prorp/internal/historystore"
	"prorp/internal/predictor"
)

func benchScale() experiments.Scale {
	s := experiments.Quick()
	s.Databases = 80
	return s
}

// BenchmarkTable1DefaultConfig exercises the production default knobs of
// Table 1 end to end on one region.
func BenchmarkTable1DefaultConfig(b *testing.B) {
	opts := DefaultOptions()
	opts.History = 7 * 24 * time.Hour
	for i := 0; i < b.N; i++ {
		rep, err := Simulate(SimulationConfig{
			Region: "EU1", Databases: 80, EvalDays: 2, Seed: 42, Options: &opts,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.QoSPercent, "qos%")
		b.ReportMetric(rep.IdlePercent, "idle%")
	}
}

// BenchmarkFig03IdleFragmentation regenerates the idle-interval CDFs.
func BenchmarkFig03IdleFragmentation(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.ShortCountFrac, "short-count%")
		b.ReportMetric(100*res.ShortDurationFrac, "short-duration%")
	}
}

// BenchmarkFig06Regions regenerates the cross-region policy comparison.
func BenchmarkFig06Regions(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(s, []string{"EU1", "US1"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Reactive.QoSPercent(), "reactive-qos%")
		b.ReportMetric(res.Rows[0].Proactive.QoSPercent(), "proactive-qos%")
	}
}

// BenchmarkFig07Days regenerates the per-day validation.
func BenchmarkFig07Days(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(s, "EU1", 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Proactive.QoSPercent(), "day1-proactive-qos%")
	}
}

// BenchmarkFig08WindowSweep regenerates the window-size sweep endpoints.
// Note: at the quick scale's 7-day history a single matching day already
// clears c = 0.1 (ceil(0.1*7) = 1), so window width barely moves QoS and
// the qos-gain metric can read 0; the full-scale sweep (28-day history,
// `prorp-bench -fig 8`) shows the paper's rising shape.
func BenchmarkFig08WindowSweep(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8Windows(s, "EU1", []int{1, 7})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[1].Report.QoSPercent()-res.Points[0].Report.QoSPercent(), "qos-gain-pts")
	}
}

// BenchmarkFig09ConfidenceSweep regenerates the threshold sweep endpoints.
func BenchmarkFig09ConfidenceSweep(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9Confidences(s, "EU1", []float64{0.1, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Report.QoSPercent()-res.Points[1].Report.QoSPercent(), "qos-drop-pts")
	}
}

// BenchmarkFig10HistorySize regenerates the storage-overhead CDFs.
func BenchmarkFig10HistorySize(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(s, "EU1")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SizeKB.Mean, "history-kb-mean")
		b.ReportMetric(res.SizeKB.Max, "history-kb-max")
	}
}

// BenchmarkFig10PredictionLatency measures Algorithm 4 wall-clock latency
// on a paper-shaped history (Figure 10(c)): the paper's claim is that it
// stays sub-second even in the worst case.
func BenchmarkFig10PredictionLatency(b *testing.B) {
	st := historystore.New()
	base := int64(1000) * 86400
	// A worst-case history: >4K tuples over 28 days (Figure 10(a) tail).
	for i := int64(0); i < 4200; i++ {
		st.Insert(base-i*576, byte(i%2))
	}
	params := predictor.Default()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		predictor.Predict(st, params, base)
	}
}

// BenchmarkFig11ResumeWorkflows regenerates the allocation-workflow boxes.
func BenchmarkFig11ResumeWorkflows(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(s, "EU1", []int{1, 15})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].Proactive.Max, "max-prewarms-15min")
	}
}

// BenchmarkFig12PauseWorkflows regenerates the reclamation-workflow boxes.
func BenchmarkFig12PauseWorkflows(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(s, "EU1", []int{1, 15})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].Proactive.Max, "max-pauses-15min")
	}
}

// BenchmarkFleetResumeOp measures one control-plane beat (Algorithm 5) over
// a proactive fleet in which every database is physically paused with a
// predicted start, the starts spread evenly over 24 h, so the metadata
// store's start index holds the whole fleet.
//
//   - steady: the clock advances by the spacing of the starts, so one
//     database comes due per beat at either size; the difference between the
//     two sizes is what fleet size costs.
//   - backlog: the clock starts with 5,000 databases past due and advances so
//     that one cap's worth (100) comes due per beat; every beat collects and
//     sorts the whole backlog and pre-warms the 100 lowest ids.
//
// After each beat the pre-warmed databases log in at their predicted time
// and go idle an hour later, which pauses them again with tomorrow's
// prediction: the fleet is the same at every b.N. Only RunResumeOp is timed
// (ns/op is overridden with the beat's own time, clock reads included).
func BenchmarkFleetResumeOp(b *testing.B) {
	opts := DefaultOptions()
	opts.History = 7 * 24 * time.Hour // one matching day clears c = 0.1
	const day = 24 * time.Hour
	for _, dbs := range []int{10_000, 100_000} {
		perDay := time.Duration(dbs)
		modes := []struct {
			name        string
			start, step time.Duration
		}{
			{"steady", -opts.PrewarmLead - opts.ResumeOpPeriod, day / perDay},
			{"backlog", day * 5_000 / perDay, day * time.Duration(opts.MaxPrewarmsPerOp) / perDay},
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("sharded/dbs=%d/%s", dbs, mode.name), func(b *testing.B) {
				f, err := NewShardedFleet(opts)
				if err != nil {
					b.Fatal(err)
				}
				// Database id is active for the first hour after
				// base + id*day/dbs on two consecutive days; next[id] is
				// its login on the third. The second idle predicts it,
				// every database's start the same interval ahead of its
				// login, so the clock is set against database 0's.
				base := time.Unix(1_700_000_000, 0)
				next := make([]time.Time, dbs)
				for id := range next {
					at := base.Add(day * time.Duration(id) / perDay)
					f.Create(id, at)
					f.Idle(id, at.Add(time.Hour))
					f.Login(id, at.Add(day))
					f.Idle(id, at.Add(day+time.Hour))
					next[id] = at.Add(2 * day)
				}
				if got := f.PausedCount(); got != dbs {
					b.Fatalf("%d of %d databases physically paused", got, dbs)
				}
				_, start0, _, ok, err := f.ExplainPrediction(0, base.Add(day+time.Hour))
				if err != nil || !ok {
					b.Fatalf("database 0 has no prediction: %v", err)
				}
				now := start0.Add(mode.start)
				var beat time.Duration
				prewarms := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now = now.Add(mode.step)
					t := time.Now()
					pws := f.RunResumeOp(now)
					beat += time.Since(t)
					prewarms += len(pws)
					for _, pw := range pws {
						f.Login(pw.ID, next[pw.ID])
						f.Idle(pw.ID, next[pw.ID].Add(time.Hour))
						next[pw.ID] = next[pw.ID].Add(day)
					}
				}
				b.ReportMetric(float64(beat.Nanoseconds())/float64(b.N), "ns/op")
				b.ReportMetric(float64(prewarms)/float64(b.N), "prewarms/op")
				if got := f.PausedCount(); got != dbs {
					b.Fatalf("%d of %d databases physically paused after %d beats", got, dbs, b.N)
				}
			})
		}
	}
}

// benchFleetMixed drives a mixed login/logout workload over 10k databases
// from a fixed number of goroutines, each owning a disjoint id range (as a
// sharded gateway tier would).
func benchFleetMixed(b *testing.B, f *ShardedFleet, goroutines int) {
	const dbs = 10_000
	base := time.Unix(1_700_000_000, 0)
	for id := 0; id < dbs; id++ {
		if err := f.Create(id, base); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		n := b.N / goroutines
		if g < b.N%goroutines {
			n++
		}
		lo, hi := g*dbs/goroutines, (g+1)*dbs/goroutines
		wg.Add(1)
		go func(lo, hi, n int) {
			defer wg.Done()
			at, id := base, lo
			for i := 0; i < n; i++ {
				at = at.Add(time.Minute)
				if i%2 == 0 {
					f.Idle(id, at)
				} else {
					f.Login(id, at)
					if id++; id == hi {
						id = lo
					}
				}
			}
		}(lo, hi, n)
	}
	wg.Wait()
}

// BenchmarkShardedFleetStripes compares a single-stripe ShardedFleet — one
// global mutex — with the default lock-striped one under concurrent event
// load. The striped fleet's advantage needs real parallelism: on a
// multi-core host it scales with the goroutine count while the global mutex
// serializes; on a single hardware thread both degenerate to sequential
// execution (numbers in EXPERIMENTS.md).
func BenchmarkShardedFleetStripes(b *testing.B) {
	opts := DefaultOptions()
	opts.History = 7 * 24 * time.Hour
	for _, goroutines := range []int{1, 4, 16, 64} {
		for _, stripes := range []int{1, 0} { // 0 = default stripe count
			name := "sharded"
			if stripes == 1 {
				name = "single"
			}
			b.Run(fmt.Sprintf("%s/goroutines=%d", name, goroutines), func(b *testing.B) {
				sh, err := NewShardedFleetShards(opts, stripes)
				if err != nil {
					b.Fatal(err)
				}
				benchFleetMixed(b, sh, goroutines)
			})
		}
	}
}
