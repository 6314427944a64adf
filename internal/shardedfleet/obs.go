package shardedfleet

import (
	"sync/atomic"
	"time"

	"prorp/internal/controlplane"
	"prorp/internal/obs"
)

// instrumentation is the runtime's attached metric set. It lives behind an
// atomic pointer so attachment is race-free against live traffic and the
// uninstrumented hot path pays one atomic load + nil check per event.
type instrumentation struct {
	// decision is indexed by Kind: time spent applying one event under the
	// shard lock — the policy engine's decision latency, including the
	// Algorithm 1 transition and any prediction recompute it triggers.
	decision [controlplane.NumKinds]*obs.Histogram
	// scan is one full Algorithm 5 RunResumeOp iteration: collecting the
	// due databases from the shards' start indexes, the fleet-wide cap
	// merge, and the pre-warm phase.
	scan *obs.Histogram
}

// Instrument attaches runtime metrics to reg:
//
//	prorp_decision_duration_seconds{kind}   histogram, per event kind
//	prorp_resume_scan_duration_seconds      histogram, Algorithm 5 iteration
//
// Instrument may be called at most once per registry; calling it with a
// nil registry leaves the runtime uninstrumented (the zero-overhead
// default, which BenchmarkObsOverhead uses as its baseline).
func (rt *Runtime) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	inst := &instrumentation{
		scan: reg.Histogram("prorp_resume_scan_duration_seconds",
			"Duration of one Algorithm 5 proactive-resume iteration.", obs.MicroBuckets),
	}
	for k := range inst.decision {
		inst.decision[k] = reg.Histogram("prorp_decision_duration_seconds",
			"Policy decision latency under the shard lock, by event kind.",
			obs.MicroBuckets, obs.L("kind", controlplane.Kind(k).String()))
	}
	rt.inst.Store(inst)
}

// observeDecision records one applied event's latency when instrumentation
// is attached. The fast path (no registry) is a single atomic load.
func (rt *Runtime) observeDecision(kind controlplane.Kind, start time.Time) {
	if inst := rt.inst.Load(); inst != nil {
		if int(kind) < len(inst.decision) {
			inst.decision[kind].ObserveSince(start)
		}
	}
}

// decisionStart samples the clock only when instrumentation is attached,
// so the uninstrumented hot path never reads the clock.
func (rt *Runtime) decisionStart() (time.Time, bool) {
	if rt.inst.Load() == nil {
		return time.Time{}, false
	}
	return time.Now(), true
}

// instPtr aliases the atomic pointer type for the Runtime struct.
type instPtr = atomic.Pointer[instrumentation]
