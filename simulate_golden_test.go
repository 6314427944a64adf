package prorp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestSimulateGolden pins one full-stack replay — report and telemetry log —
// to the bytes the literal Algorithm 4 scan produced (captured at commit
// df9eac8, before the predictor became a cursor sweep). The simulator is
// deterministic per seed, so any difference is a change in some decision:
// a fidelity bug in the predictor, policy or control plane, not noise.
func TestSimulateGolden(t *testing.T) {
	const (
		goldenReport = `prorp.Report{Name:"EU1 proactive (120 databases, 3 eval days)", ` +
			`QoSPercent:93.45238095238095, WarmLogins:314, ColdLogins:22, ` +
			`IdlePercent:6.440113811728395, IdleLogicalPercent:1.9917373971193415, ` +
			`IdlePrewarmCorrectPercent:1.06684670781893, IdlePrewarmWrongPercent:3.3815297067901233, ` +
			`SavedPercent:82.8577449845679, UsedPercent:10.697029320987655, ` +
			`UnavailablePercent:0.005111882716049383, ` +
			`Prewarms:154, PrewarmsUsed:103, PrewarmsWasted:52, LogicalPauses:229, PhysicalPauses:176}`
		goldenTelemetry = "edd2afd9fdb81fdb880af96817c71959a6a5620b870472eaf89f4e83ee457a6d"
	)
	var telemetry bytes.Buffer
	rep, err := SimulateWithTelemetry(SimulationConfig{
		Region: "EU1", Databases: 120, HistoryDays: 28, EvalDays: 3, Seed: 15,
	}, &telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%#v", rep); got != goldenReport {
		t.Errorf("report changed:\n got %s\nwant %s", got, goldenReport)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(telemetry.Bytes())); got != goldenTelemetry {
		t.Errorf("telemetry log (%d bytes) hashes to %s, want %s", telemetry.Len(), got, goldenTelemetry)
	}
}
