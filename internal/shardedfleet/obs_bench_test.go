package shardedfleet

import (
	"testing"

	"prorp/internal/obs"
)

// benchFleet builds a runtime with a populated fleet: every database has
// several days of login/logout history, so each benchmarked event exercises
// the real decision path (history append + prediction recompute), not an
// empty machine.
func benchFleet(b *testing.B, instrument bool) *Runtime {
	b.Helper()
	rt, err := New(testCfg(8))
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		rt.Instrument(obs.NewRegistry())
	}
	const dbs = 64
	for id := 0; id < dbs; id++ {
		if err := rt.Create(id, t0); err != nil {
			b.Fatal(err)
		}
		for d := int64(0); d < 3; d++ {
			if _, err := rt.Login(id, t0+d*day+9*3600); err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Logout(id, t0+d*day+17*3600); err != nil {
				b.Fatal(err)
			}
		}
	}
	return rt
}

// runDecisions drives the login/logout hot path over the prepopulated
// fleet: the exact code path the decision histograms wrap.
func runDecisions(b *testing.B, rt *Runtime) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	at := t0 + 4*day
	for i := 0; i < b.N; i++ {
		id := i % 64
		if _, err := rt.Login(id, at+9*3600); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Logout(id, at+17*3600); err != nil {
			b.Fatal(err)
		}
		if id == 63 {
			at += day
		}
	}
}

// BenchmarkObsOverhead compares the decision hot path with and without an
// attached metric registry. The acceptance bar for the observability layer
// is <= 5% throughput regression when instrumented; see EXPERIMENTS.md for
// recorded numbers.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("uninstrumented", func(b *testing.B) {
		runDecisions(b, benchFleet(b, false))
	})
	b.Run("instrumented", func(b *testing.B) {
		runDecisions(b, benchFleet(b, true))
	})
}
