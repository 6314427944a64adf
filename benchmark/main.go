// Command benchmark is the one harness performance and simplicity changes
// to the ProRP serving tier are judged by. It seeds a 16,000-database fleet
// with 29 days of trace, boots real prorp-serve binaries in one of four
// topologies, drives them closed-loop from this process with two callers on
// two connections, checks every answer, and prints every metric by name and
// unit. A separate traced run replays the same ops in process at
// successively deeper entry points and reports where the time goes, layer
// by layer. See README.md.
//
// The driver's contract (BENCHMARK.json):
//
//	go run -C benchmark . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints one JSON object as the last line of standard output. Without
// --workload every workload runs in turn; -aa runs the whole set twice and
// compares the two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: mem-single, durable-pair, routed-3g or sim-replay (empty = each in turn)")
		seed     = flag.Int64("seed", 7, "workload seed: the trace, the op stream and the simulator all derive from it")
		seconds  = flag.Int("seconds", 20, "length of the measured closed phase (the traced run's phases are fixed)")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and benchmark/out/trace-<workload>.json")
		aa       = flag.Bool("aa", false, "run the whole set twice and compare every end-to-end metric against its bound")
		spinning = flag.Bool("spin", false, "internal: burn CPU at the parent's bidding (see startSpinners)")
	)
	flag.Parse()
	if *spinning {
		spin()
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *aa))
}

func run(workload string, seed int64, seconds int, trace, aa bool) int {
	start := time.Now()
	names := []string{workload}
	if workload == "" {
		names = nil
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}

	sb, err := newSandbox()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Children die and scratch files go on success, on failure and on a
	// signal alike.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		sb.cleanup()
		os.Exit(130)
	}()
	defer sb.cleanup()

	runSet := func() ([]*result, bool) {
		var set []*result
		for _, name := range names {
			var res *result
			var err error
			if trace {
				res, err = traced(name, seed, sb)
			} else {
				res, err = measure(name, seed, seconds, sb)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				sb.dumpLogs()
				return nil, false
			}
			printResult(res, trace)
			if len(res.Problems) > 0 {
				sb.dumpLogs()
			}
			set = append(set, res)
		}
		return set, true
	}

	first, ok := runSet()
	if !ok {
		return 1
	}
	code := 0
	if aa {
		second, ok := runSet()
		if !ok {
			return 1
		}
		if !compareAA(first, second, trace) {
			code = 1
		}
		first = append(first, second...)
	}
	fmt.Printf("total wall time %.1f s\n", time.Since(start).Seconds())

	// The driver reads one workload's metrics from the last line; with
	// several workloads the line sums the op counts and carries no metrics
	// (the tables above do).
	out := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, res := range first {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		if len(res.Problems) > 0 {
			out.Correct = false
		}
	}
	if len(first) == 1 {
		specs := endToEnd
		if trace {
			specs = perLayer
		}
		for _, s := range specs {
			out.Metrics[s.Name] = metricValue{Value: first[0].Metrics[s.Name], Unit: s.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return code
}

// printResult prints one workload's metrics, by name and unit, and every
// failed check.
func printResult(res *result, trace bool) {
	fmt.Printf("== %s: %d ops attempted, %d failed\n", res.Workload, res.Attempted, res.Failed)
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Printf("  %-34s %14.4f %s\n", s.Name, res.Metrics[s.Name], s.Unit)
	}
	for _, p := range res.Problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
}

// exactForSeed names the metrics that are counts or policy outcomes: for one
// seed they must come out the same every time, bound or no bound.
var exactForSeed = map[string]bool{
	"qos_warm_pct": true, "cogs_idle_pct": true,
	"engine.prewarms": true, "engine.physical_pauses": true, "engine.qos_warm_pct": true, "engine.cogs_idle_pct": true,
	"historystore.tuples_per_db": true, "historystore.bytes_per_db": true,
}

// compareAA prints, per workload and metric, both sets' values and how much
// worse the second is than the first, and reports whether every end-to-end
// metric held its bound and every exact metric repeated exactly. Per-layer
// metrics other than the exact ones carry no bound and are not compared.
func compareAA(first, second []*result, trace bool) bool {
	ok := true
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	fmt.Println("== A/A: second set against first")
	for i, a := range first {
		b := second[i]
		for _, s := range specs {
			if s.Bound == 0 && !exactForSeed[s.Name] {
				continue
			}
			va, vb := a.Metrics[s.Name], b.Metrics[s.Name]
			worse := (vb - va) / va
			if s.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			switch {
			case exactForSeed[s.Name] && va != vb:
				verdict = "NOT EXACT"
				ok = false
			case s.Bound > 0 && worse > s.Bound:
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-13s %-26s %14.4f %14.4f %-6s worse by %+6.1f%% (bound %.0f%%) %s\n",
				a.Workload, s.Name, va, vb, s.Unit, 100*worse, 100*s.Bound, verdict)
		}
	}
	return ok
}
