package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"prorp"
)

func testActive(n int) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = i%6 == 0
	}
	return active
}

func TestOpStreamDeterministicPerSeed(t *testing.T) {
	const n = 20000
	active := testActive(1000)
	a := encodeOps(newOpStream(7, active, 500, 50).take(n))
	b := encodeOps(newOpStream(7, active, 500, 50).take(n))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different streams")
	}
	if c := encodeOps(newOpStream(8, active, 500, 50).take(n)); bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same stream")
	}
}

// Every login must follow an idle gap and every logout an active one, a
// database's writes must be far apart in the stream, and the mix must
// settle at one login per logout whatever the share active at the start.
func TestOpStreamTogglesAndSpaces(t *testing.T) {
	const dbs, n = 1000, 50000
	active := testActive(dbs)
	state := append([]bool(nil), active...)
	lastWrite := make([]int, dbs)
	var counts [numOpKinds]int
	writes, minGap := 0, n
	for i, o := range newOpStream(3, active, 500, 50).take(n) {
		counts[o.Kind]++
		switch o.Kind {
		case opLogin, opLogout:
			writes++
			if state[o.DB] == (o.Kind == opLogin) {
				t.Fatalf("op %d: %s on database %d whose active=%v", i, o.Kind, o.DB, state[o.DB])
			}
			state[o.DB] = o.Kind == opLogin
			if lastWrite[o.DB] != 0 && writes-lastWrite[o.DB] < minGap {
				minGap = writes - lastWrite[o.DB]
			}
			lastWrite[o.DB] = writes
		}
	}
	if minGap < dbs*3/4 {
		t.Errorf("two writes to one database only %d writes apart, want at least %d", minGap, dbs*3/4)
	}
	if counts[opBeat] != n/500 || counts[opKPI] != n/50-n/500 {
		t.Errorf("beats %d kpis %d, want %d and %d", counts[opBeat], counts[opKPI], n/500, n/50-n/500)
	}
	if r := float64(counts[opLogin]) / float64(counts[opLogout]); r < 0.95 || r > 1.1 {
		t.Errorf("login:logout ratio %.3f, want about 1", r)
	}
	if share := float64(counts[opGet]) / float64(n); share < 0.18 || share > 0.21 {
		t.Errorf("read share %.3f, want about 0.2", share)
	}
}

// The trace is generated on a virtual axis and shifted onto the wall clock;
// the predictor is relative to now. Two seedings that start at different
// wall-clock times must therefore leave every database with the same state
// and the same predicted start, measured from their own now.
func TestSeedPhasePinnedToNow(t *testing.T) {
	const dbs = 300
	traces, err := seedTraces(7, dbs)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		State     prorp.State
		Predicted bool
		Offset    time.Duration
	}
	seedAt := func(now time.Time) ([]outcome, seedAcct) {
		fleet, err := prorp.NewShardedFleet(prorp.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		active, acct, _, err := replayAll(traces, now.Unix()-virtualNow, func(int) *prorp.ShardedFleet { return fleet })
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(active, true) || !slices.Contains(active, false) {
			t.Errorf("degenerate active set at seed time")
		}
		out := make([]outcome, dbs)
		for id := range out {
			st, err := fleet.State(id)
			if err != nil {
				t.Fatal(err)
			}
			start, _, ok, err := fleet.NextPredictedActivity(id)
			if err != nil {
				t.Fatal(err)
			}
			out[id] = outcome{State: st, Predicted: ok}
			if ok {
				out[id].Offset = start.Sub(now.Truncate(time.Second))
			}
		}
		return out, acct
	}
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	a, acctA := seedAt(base)
	b, acctB := seedAt(base.Add(5*time.Hour + 17*time.Minute + 3*time.Second))
	if !reflect.DeepEqual(a, b) {
		for id := range a {
			if a[id] != b[id] {
				t.Fatalf("database %d: %+v at one start time, %+v at another", id, a[id], b[id])
			}
		}
	}
	if acctA != acctB {
		t.Errorf("accounting differs: %+v vs %+v", acctA, acctB)
	}
	predicted := 0
	for _, o := range a {
		if o.Predicted {
			predicted++
		}
	}
	if predicted < dbs/4 {
		t.Errorf("only %d of %d databases have a prediction: the seed does not exercise Algorithm 4", predicted, dbs)
	}
	if acctA.Warm == 0 || acctA.Cold == 0 || acctA.IdleSec == 0 {
		t.Errorf("degenerate seed accounting: %+v", acctA)
	}
}

func TestPercentileIsExact(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.995, 100}} {
		if got := percentile(append([]float64(nil), s...), c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentile of three = %v, want the middle sample 2", got)
	}
	if got := percentile([]float64(nil), 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// A phase with a slow start, a fast last half second, and one quarter second
// in which a single caller, alone on the machine, looked faster still: the
// gated figures come from the windows that completed the most ops.
func TestBestWindowsRankByThroughput(t *testing.T) {
	cs := closedStats{phase: phase{Dur: 10 * time.Second}}
	add := func(from, to, every, lat time.Duration) {
		for end := from + every; end <= to; end += every {
			cs.phase.Samples = append(cs.phase.Samples, sample{Kind: opLogin, Start: end - lat, End: end - 1})
		}
	}
	add(0, 5*time.Second, time.Millisecond, 900*time.Microsecond)
	add(5*time.Second, 5250*time.Millisecond, 5*time.Millisecond, 50*time.Microsecond)
	add(5250*time.Millisecond, 9500*time.Millisecond, time.Millisecond, 900*time.Microsecond)
	add(9500*time.Millisecond, 10*time.Second, 500*time.Microsecond, 200*time.Microsecond)
	if got := cs.phase.bestRate(); got != 2000 {
		t.Errorf("best rate = %v, want the last half second's 2000", got)
	}
	if got := cs.phase.bestQuantileMS(opLogin, 0.5, nil); math.Abs(got-0.2) > 0.001 {
		t.Errorf("best login p50 = %v ms, want 0.2", got)
	}
	// With keep halving the fast windows' samples the best twentieth holds
	// 500: enough for a p50 or a trimmed mean, while a p99 wants 1,000 and draws on
	// the next windows in rank order, which are slow.
	wholeMS := func(s sample) bool { return (s.End+1)%time.Millisecond == 0 }
	if got := cs.phase.bestQuantileMS(opLogin, 0.5, wholeMS); math.Abs(got-0.2) > 0.001 {
		t.Errorf("filtered best login p50 = %v ms, want 0.2", got)
	}
	if got := cs.phase.bestQuantileMS(opLogin, 0.99, wholeMS); math.Abs(got-0.9) > 0.001 {
		t.Errorf("filtered best login p99 = %v ms, want 0.9", got)
	}
	for i := 0; i <= 40; i++ {
		cs.ticks = append(cs.ticks, cpuTick{at: time.Duration(i) * window,
			server: time.Duration(i) * 100 * time.Millisecond, self: time.Duration(i) * 25 * time.Millisecond})
	}
	if server, self := cs.bestCPUPerOp(); server != 200 || self != 50 {
		t.Errorf("best CPU per op = %v, %v us, want 200 and 50", server, self)
	}
	if minSamples(0.5) != 400 || minSamples(0.99) != 1000 {
		t.Errorf("minSamples = %d, %d", minSamples(0.5), minSamples(0.99))
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := cs.phase.bestTrimmedMeanMS(opLogin, 0.1); math.Abs(got-0.2) > 0.001 {
		t.Errorf("best login trimmed mean = %v ms, want 0.2", got)
	}
}

// The trimmed mean follows the weight of two modes in proportion where a
// quantile jumps from one to the other, and it ignores the tails.
func TestTrimmedMean(t *testing.T) {
	if got := trimmedMean([]float64{100, 1, 3, 2, 4, 5, 6, 0, 7, 8}, 0.1); got != 4.5 {
		t.Errorf("10 %% trimmed mean of ten = %v, want the mean of the middle eight, 4.5", got)
	}
	if got := trimmedMean([]float64{7}, 0.1); got != 7 {
		t.Errorf("trimmed mean of one = %v", got)
	}
	if got := trimmedMean(nil, 0.1); got != 0 {
		t.Errorf("trimmed mean of nothing = %v", got)
	}
	modes := func(slow int) []float64 {
		s := make([]float64, 100)
		for i := range s {
			s[i] = 3
			if i < slow {
				s[i] = 6
			}
		}
		return s
	}
	// A fifth of the samples in the slow mode, then three tenths: the 75th
	// percentile doubles, the trimmed mean moves by a ninth.
	if a, b := percentile(modes(20), 0.75), percentile(modes(30), 0.75); a != 3 || b != 6 {
		t.Errorf("p75 = %v, %v, want 3 and 6", a, b)
	}
	if a, b := trimmedMean(modes(20), 0.1), trimmedMean(modes(30), 0.1); a != 3.375 || b != 3.75 {
		t.Errorf("trimmed mean = %v, %v, want 3.375 and 3.75", a, b)
	}
}

// A hand-built span set: one op with the full ladder, one with no journal.
func TestSelfTimeArithmetic(t *testing.T) {
	mk := func(name string, op int, start, end int64) span {
		return span{Name: name, Op: op, Kind: "login", Start: start, End: end, Parent: rungParent[name]}
	}
	spans := []span{
		mk(rungHTTP, 1, 0, 100), mk(rungServe, 1, 0, 60), mk(rungAdmission, 1, 0, 1),
		mk(rungShardmap, 1, 0, 2), mk(rungWAL, 1, 0, 30), mk(rungFleet, 1, 0, 20),
		mk(rungHTTP, 2, 1000, 1080), mk(rungServe, 2, 1000, 1050), mk(rungFleet, 2, 1000, 1045),
		{Name: rungFleet, Op: 3, Kind: "logout", Start: 0, End: 9, Parent: rungServe},
	}
	self := selfTimes(spans, "login")
	want := map[string][]time.Duration{
		rungHTTP: {40, 30}, rungServe: {7, 5}, rungAdmission: {1}, rungShardmap: {2}, rungWAL: {30}, rungFleet: {20, 45},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	// A rung's self time plus its children's is its own duration, so the
	// ladder's self times add up to the outermost span.
	var sum time.Duration
	for name, ds := range self {
		_ = name
		sum += ds[0]
	}
	if sum != 100 {
		t.Errorf("op 1's self times sum to %v, want the outer span's 100", sum)
	}
	if got := len(selfTimes(spans, "")[rungFleet]); got != 3 {
		t.Errorf("unfiltered fleet spans = %d, want 3", got)
	}
}

func TestSpacingRejectsEventsInOneSecond(t *testing.T) {
	sp := newSpacing(4)
	at := time.Unix(1_700_000_000, 0)
	if err := sp.check(2, at, true); err != nil {
		t.Fatal(err)
	}
	if err := sp.check(2, at.Add(999*time.Millisecond), false); err == nil {
		t.Error("two events in one second accepted")
	}
	if err := sp.check(2, at.Add(time.Second), false); err != nil {
		t.Errorf("events a second apart rejected: %v", err)
	}
	if got := sp.acked(); !reflect.DeepEqual(got, map[int]bool{2: false}) {
		t.Errorf("acked = %v", got)
	}
}

func TestCheckDecision(t *testing.T) {
	for _, c := range []struct {
		kind         opKind
		event, state string
		ok           bool
	}{
		{opLogin, "resume-warm", "resumed", true},
		{opLogin, "resume-cold", "resumed", true},
		{opLogin, "none", "resumed", false}, // swallowed: the database was already active
		{opLogout, "logical-pause", "logically-paused", true},
		{opLogout, "physical-pause", "physically-paused", true},
		{opLogout, "none", "physically-paused", false},
		{opLogout, "logical-pause", "", false},
	} {
		if err := checkDecision(c.kind, c.event, c.state); (err == nil) != c.ok {
			t.Errorf("checkDecision(%s, %q, %q) = %v, want ok=%v", c.kind, c.event, c.state, err, c.ok)
		}
	}
}

// BENCHMARK.json is the driver's copy of spec.go.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Paths, []string{"benchmark"}) || got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", got.Paths, got.RunSeconds)
	}
	if len(got.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if got.Workloads[i].Name != w.Name || got.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want %+v", i, got.Workloads[i], w)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, s)
			}
			if bounded && (g.Bound == nil || *g.Bound != s.Bound || s.Bound <= 0 || s.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, want %v", kind, s.Name, g.Bound, s.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, s.Name)
			}
		}
	}
	check("end_to_end", got.EndToEnd, endToEnd, true)
	check("per_layer", got.PerLayer, perLayer, false)
}

// encodeOps renders ops as bytes, for comparing streams.
func encodeOps(ops []op) []byte {
	out := make([]byte, 0, 9*len(ops))
	for _, o := range ops {
		out = append(out, byte(o.Kind))
		out = binary.LittleEndian.AppendUint32(out, uint32(o.DB))
		out = binary.LittleEndian.AppendUint32(out, uint32(o.Seq))
	}
	return out
}
