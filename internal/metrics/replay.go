package metrics

import (
	"fmt"

	"prorp/internal/telemetry"
)

// ReplayTelemetry computes the KPI report offline, from the long-term
// telemetry log alone — the paper's Cosmos-side evaluation path
// (Section 8: "Customer activity and resource allocation decisions are
// persisted long-term for offline evaluation of KPI metrics").
//
// It checks each database's birth (its first record must be an activity
// start), folds every record through Collector.Observe — the fold the
// online engine runs as it emits the same records, which policy.Effects
// translates once — and closes every account at the horizon. The one
// difference from the online report: the log carries no workflow latency,
// so a reactive resume's Unavailable wait is accounted as Used.
func ReplayTelemetry(log *telemetry.Log, evalFrom, evalTo int64) (Report, error) {
	coll, err := NewCollector(evalFrom, evalTo)
	if err != nil {
		return Report{}, err
	}
	accounts := map[int]*Account{}
	for _, r := range log.Records() {
		a := accounts[r.DB]
		if a == nil {
			if r.Kind != telemetry.ActivityStart {
				return Report{}, fmt.Errorf(
					"metrics: database %d first appears with %v at %d, want activity-start",
					r.DB, r.Kind, r.Time)
			}
			acct := NewAccount(r.Time)
			a = &acct
			accounts[r.DB] = a
		}
		coll.Observe(a, r)
	}
	for _, a := range accounts {
		coll.Close(a, evalTo)
	}
	return coll.Report(), nil
}
