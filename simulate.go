package prorp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"prorp/internal/cluster"
	"prorp/internal/engine"
	"prorp/internal/metrics"
	"prorp/internal/telemetry"
	"prorp/internal/workload"
)

// SimulationConfig describes one region-scale replay: a synthetic fleet of
// serverless databases (patterned after the archetype mixes of the four
// large Azure regions in the paper) driven through the full ProRP stack —
// per-database policy, control plane, cluster workflows — under virtual
// time.
type SimulationConfig struct {
	// Region selects the workload mix: EU1, EU2, US1, or US2.
	Region string
	// Databases is the fleet size.
	Databases int
	// HistoryDays is the detector's h (and the warm-up is sized to it).
	HistoryDays int
	// EvalDays is the measured span after warm-up.
	EvalDays int
	// Seed makes the run reproducible.
	Seed int64
	// Options are the policy knobs; zero value means DefaultOptions.
	Options *Options
}

// Report is the public KPI report of a simulation, per Section 8 of the
// paper.
type Report struct {
	Name string

	// QoSPercent is the percentage of first logins after idle that found
	// resources available.
	QoSPercent float64
	// WarmLogins / ColdLogins are the underlying counts.
	WarmLogins, ColdLogins int

	// IdlePercent is the share of database-time with resources allocated
	// but idle, decomposed below.
	IdlePercent               float64
	IdleLogicalPercent        float64
	IdlePrewarmCorrectPercent float64
	IdlePrewarmWrongPercent   float64

	// SavedPercent is the share of time resources were correctly
	// reclaimed; UsedPercent the share they served customer load;
	// UnavailablePercent the share demand waited on reactive resumes.
	SavedPercent       float64
	UsedPercent        float64
	UnavailablePercent float64

	// Workflow counters.
	Prewarms, PrewarmsUsed, PrewarmsWasted int
	LogicalPauses, PhysicalPauses          int
}

func publicReport(r metrics.Report) Report {
	return Report{
		Name:                      r.Name,
		QoSPercent:                r.QoSPercent(),
		WarmLogins:                r.WarmLogins,
		ColdLogins:                r.ColdLogins,
		IdlePercent:               r.IdlePercent(),
		IdleLogicalPercent:        r.IdleLogicalPercent(),
		IdlePrewarmCorrectPercent: r.IdlePrewarmCorrectPercent(),
		IdlePrewarmWrongPercent:   r.IdlePrewarmWrongPercent(),
		SavedPercent:              r.SavedPercent(),
		UsedPercent:               r.UsedPercent(),
		UnavailablePercent:        r.UnavailablePercent(),
		Prewarms:                  r.Prewarms,
		PrewarmsUsed:              r.PrewarmsUsed,
		PrewarmsWasted:            r.PrewarmsWasted,
		LogicalPauses:             r.LogicalPauses,
		PhysicalPauses:            r.PhysicalPauses,
	}
}

// String renders the report in the layout of the paper's figures.
func (r Report) String() string {
	var b strings.Builder
	if r.Name != "" {
		fmt.Fprintf(&b, "%s\n", r.Name)
	}
	fmt.Fprintf(&b, "  QoS: %5.1f%% of first logins warm (%d warm, %d cold)\n",
		r.QoSPercent, r.WarmLogins, r.ColdLogins)
	fmt.Fprintf(&b, "  idle: %5.2f%% (logical %.2f%%, prewarm-correct %.2f%%, prewarm-wrong %.2f%%)\n",
		r.IdlePercent, r.IdleLogicalPercent, r.IdlePrewarmCorrectPercent, r.IdlePrewarmWrongPercent)
	fmt.Fprintf(&b, "  saved: %5.2f%%  used: %5.2f%%  unavailable: %5.3f%%\n",
		r.SavedPercent, r.UsedPercent, r.UnavailablePercent)
	fmt.Fprintf(&b, "  prewarms: %d (%d used, %d wasted)  pauses: %d logical, %d physical\n",
		r.Prewarms, r.PrewarmsUsed, r.PrewarmsWasted, r.LogicalPauses, r.PhysicalPauses)
	return b.String()
}

const secondsPerDay = 24 * 3600

// Simulate replays the configured region through the full stack and
// returns the KPI report.
func Simulate(cfg SimulationConfig) (Report, error) {
	return SimulateWithTelemetry(cfg, nil)
}

// SimulateWithTelemetry additionally exports the run's full telemetry log
// to w (one `timestamp,database,kind` line per event — the long-term
// format the offline KPI evaluation and training pipeline consume; see
// cmd/prorp-inspect). A nil writer skips the export.
func SimulateWithTelemetry(cfg SimulationConfig, w io.Writer) (Report, error) {
	opts := DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	if cfg.HistoryDays > 0 {
		opts.History = time.Duration(cfg.HistoryDays) * 24 * time.Hour
	}
	if err := opts.Validate(); err != nil {
		return Report{}, err
	}
	if cfg.Databases <= 0 {
		return Report{}, fmt.Errorf("prorp: %d databases", cfg.Databases)
	}
	if cfg.EvalDays <= 0 {
		return Report{}, fmt.Errorf("prorp: %d eval days", cfg.EvalDays)
	}
	historyDays := int(opts.History / (24 * time.Hour))
	warmupDays := historyDays + 1

	prof, err := workload.Region(cfg.Region)
	if err != nil {
		return Report{}, err
	}
	gen, err := workload.NewGenerator(cfg.Seed, prof)
	if err != nil {
		return Report{}, err
	}
	to := int64(warmupDays+cfg.EvalDays) * secondsPerDay
	traces := gen.Generate(cfg.Databases, 0, to)

	ecfg := engine.Config{
		Policy:       opts.policyConfig(),
		ControlPlane: opts.controlPlaneConfig(),
		Cluster:      cluster.DefaultConfig(cfg.Databases),
		From:         0,
		EvalFrom:     int64(warmupDays) * secondsPerDay,
		To:           to,
		Seed:         cfg.Seed,
	}
	res, err := engine.Run(ecfg, traces)
	if err != nil {
		return Report{}, err
	}
	if w != nil {
		if _, err := res.Telemetry.WriteTo(w); err != nil {
			return Report{}, fmt.Errorf("prorp: exporting telemetry: %w", err)
		}
	}
	res.Report.Name = fmt.Sprintf("%s %s (%d databases, %d eval days)",
		cfg.Region, opts.Mode, cfg.Databases, cfg.EvalDays)
	return publicReport(res.Report), nil
}

// EvaluateTelemetry computes the KPI report offline from an exported
// telemetry log, over the evaluation window [evalFrom, evalTo). This is
// the paper's Cosmos-side evaluation path. It folds the records through the
// same per-database §8 accounting the simulator ran as it wrote them, so the
// report matches Simulate's but for one thing: the log carries no workflow
// latency, so reactive-resume wait time counts as used, not unavailable.
func EvaluateTelemetry(r io.Reader, evalFrom, evalTo time.Time) (Report, error) {
	log, err := telemetry.ReadLog(r)
	if err != nil {
		return Report{}, err
	}
	rep, err := metrics.ReplayTelemetry(log, evalFrom.Unix(), evalTo.Unix())
	if err != nil {
		return Report{}, err
	}
	rep.Name = fmt.Sprintf("offline evaluation of %d telemetry records", log.Len())
	return publicReport(rep), nil
}

// Regions lists the available region workload profiles.
func Regions() []string { return workload.RegionNames() }
