package controlplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"prorp/internal/policy"
	"prorp/internal/predictor"
)

func TestMetadataStoreBasics(t *testing.T) {
	s := NewMetadataStore()
	if len(s.paused) != 0 {
		t.Fatal("fresh store not empty")
	}
	s.SetPaused(1, 1000)
	s.SetPaused(2, 0)
	if len(s.paused) != 2 {
		t.Fatalf("%d paused entries", len(s.paused))
	}
	if v, ok := s.PredictedStart(1); !ok || v != 1000 {
		t.Fatalf("PredictedStart(1) = %d,%v", v, ok)
	}
	s.ClearPaused(1)
	if _, ok := s.PredictedStart(1); ok {
		t.Fatal("ClearPaused did not remove the entry")
	}
	s.ClearPaused(99) // no-op
}

func TestSelectDue(t *testing.T) {
	s := NewMetadataStore()
	s.SetPaused(1, 1000) // already due
	s.SetPaused(2, 1360) // due within now+k+period (1000+300+60)
	s.SetPaused(3, 1361) // just beyond the cutoff
	s.SetPaused(4, 0)    // no prediction: never prewarm
	s.SetPaused(5, 1200)

	got := s.SelectDue(1000, 300, 60)
	want := []int{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("SelectDue = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelectDue = %v, want %v", got, want)
		}
	}
}

// t0 is 2023-09-01 00:00 UTC; day is one day in seconds.
const (
	t0  = int64(1693526400)
	day = int64(86400)
)

// partitionCfg predicts quickly: 7-day history (one matching day clears
// c = 0.1), 1-hour logical pause.
func partitionCfg(mode policy.Mode) policy.Config {
	return policy.Config{
		Mode:            mode,
		LogicalPauseSec: 3600,
		Predictor: predictor.Params{
			HistoryDays:  7,
			HorizonHours: 24,
			Confidence:   0.1,
			WindowSec:    3600,
			SlideSec:     300,
			Seasonality:  predictor.Daily,
		},
	}
}

// pauseDaily creates database id in p and drives it through two days of
// activity from hour:00 to 17:00. In proactive mode the second logout
// physically pauses it under a prediction of the third day's hour:00.
func pauseDaily(t *testing.T, p *Partition, id int, hour int64) policy.Effects {
	t.Helper()
	var eff policy.Effects
	for _, ev := range []struct {
		kind Kind
		at   int64
	}{
		{KindCreate, t0 + hour*3600},
		{KindLogout, t0 + 17*3600},
		{KindLogin, t0 + day + hour*3600},
		{KindLogout, t0 + day + 17*3600},
	} {
		var err error
		if eff, err = p.Apply(ev.kind, id, ev.at); err != nil {
			t.Fatal(err)
		}
	}
	if eff.Transition != policy.TransPhysicalPause {
		t.Fatalf("database %d: last logout = %+v, want a physical pause", id, eff)
	}
	return eff
}

// beat is the Algorithm 5 iteration two minutes ahead of the third day's
// 9:00, the predicted start pauseDaily(…, 9) leaves behind.
const beat = t0 + 2*day + 9*3600 - 120

func TestResumeOpRemovesSelected(t *testing.T) {
	p := NewPartition(partitionCfg(policy.Proactive))
	pauseDaily(t, p, 1, 9)
	pauseDaily(t, p, 2, 13) // predicted for 13:00: not due at the beat
	cfg := DefaultConfig()
	got := p.ResumeOp(cfg, beat)
	if len(got) != 1 || got[0].ID != 1 || got[0].Effects.Transition != policy.TransPrewarm {
		t.Fatalf("ResumeOp = %+v, want a pre-warm of database 1", got)
	}
	if _, ok := p.meta.PredictedStart(1); ok {
		t.Fatal("selected entry not removed")
	}
	if _, ok := p.meta.PredictedStart(2); !ok {
		t.Fatal("unselected entry removed")
	}
	// A second iteration selects nothing new.
	if got := p.ResumeOp(cfg, beat+60); len(got) != 0 {
		t.Fatalf("second ResumeOp = %+v, want empty", got)
	}
}

func TestResumeOpRespectsCap(t *testing.T) {
	p := NewPartition(partitionCfg(policy.Proactive))
	for i := 0; i < 250; i++ {
		pauseDaily(t, p, i, 9)
	}
	cfg := Config{OpPeriodSec: 60, PrewarmLeadSec: 300, MaxPrewarmsPerOp: 100}
	first := p.ResumeOp(cfg, beat)
	if len(first) != 100 || first[0].ID != 0 || first[99].ID != 99 {
		t.Fatalf("first op pre-warmed %d, want ids 0-99", len(first))
	}
	// Overflow remains queued for the next iterations.
	second := p.ResumeOp(cfg, beat+60)
	third := p.ResumeOp(cfg, beat+120)
	if len(second) != 100 || len(third) != 50 {
		t.Fatalf("drain = %d,%d, want 100,50", len(second), len(third))
	}
	if len(p.meta.paused) != 0 {
		t.Fatalf("%d entries left after drain", len(p.meta.paused))
	}
}

func TestResumeOpUnlimitedCap(t *testing.T) {
	p := NewPartition(partitionCfg(policy.Proactive))
	for i := 0; i < 250; i++ {
		pauseDaily(t, p, i, 9)
	}
	cfg := Config{OpPeriodSec: 60, PrewarmLeadSec: 300, MaxPrewarmsPerOp: 0}
	if got := p.ResumeOp(cfg, beat); len(got) != 250 {
		t.Fatalf("unlimited op pre-warmed %d, want 250", len(got))
	}
}

// TestPartitionMetadataRule checks the one rule from transitions to the
// metadata store: a proactive physical pause records its prediction, a
// cold resume and a delete clear it, and a reactive physical pause records
// nothing.
func TestPartitionMetadataRule(t *testing.T) {
	p := NewPartition(partitionCfg(policy.Proactive))
	eff := pauseDaily(t, p, 1, 9)
	if start, ok := p.meta.PredictedStart(1); !ok || start != eff.MetadataStart || start != t0+2*day+9*3600 {
		t.Fatalf("proactive pause stored %d, %v; want %d", start, ok, eff.MetadataStart)
	}
	if eff, err := p.Apply(KindLogin, 1, beat); err != nil || eff.Transition != policy.TransResumeCold {
		t.Fatalf("login without a beat = %+v, %v; want a cold resume", eff, err)
	}
	if _, ok := p.meta.PredictedStart(1); ok {
		t.Fatal("cold resume left the entry")
	}
	pauseDaily(t, p, 2, 9)
	if _, err := p.Apply(KindDelete, 2, beat); err != nil {
		t.Fatal(err)
	}
	if len(p.meta.paused) != 0 {
		t.Fatalf("delete left %d entries", len(p.meta.paused))
	}

	r := NewPartition(partitionCfg(policy.Reactive))
	if _, err := r.Apply(KindCreate, 1, t0); err != nil {
		t.Fatal(err)
	}
	eff, err := r.Apply(KindLogout, 1, t0+3600)
	if err != nil {
		t.Fatal(err)
	}
	if eff, err = r.Apply(KindWake, 1, eff.TimerAt); err != nil || eff.Transition != policy.TransPhysicalPause {
		t.Fatalf("wake = %+v, %v; want a reactive physical pause", eff, err)
	}
	if len(r.meta.paused) != 0 {
		t.Fatalf("reactive physical pause left %d metadata entries", len(r.meta.paused))
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{OpPeriodSec: 0, PrewarmLeadSec: 300},
		{OpPeriodSec: 60, PrewarmLeadSec: -1},
		{OpPeriodSec: 60, PrewarmLeadSec: 0, MaxPrewarmsPerOp: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunnerLifecycle(t *testing.T) {
	r := NewRunner(600)
	r.WorkflowStarted(1, 100, "resume")
	r.WorkflowStarted(2, 100, "pause")
	r.WorkflowStarted(3, 400, "resume")
	if len(r.inflight) != 3 {
		t.Fatalf("%d in flight", len(r.inflight))
	}
	r.WorkflowFinished(2)
	if len(r.inflight) != 2 {
		t.Fatal("finish not tracked")
	}
	// At t=700: workflow 1 is 600s old (stuck), workflow 3 is 300s old.
	mitigated := r.Sweep(700)
	if len(mitigated) != 1 || mitigated[0] != 1 {
		t.Fatalf("Sweep = %v, want [1]", mitigated)
	}
	if r.Mitigations != 1 {
		t.Fatalf("Mitigations = %d", r.Mitigations)
	}
	if len(r.inflight) != 1 {
		t.Fatal("mitigated workflow still in flight")
	}
}

func TestRunnerSweepEmptyAndIdempotent(t *testing.T) {
	r := NewRunner(600)
	if got := r.Sweep(1000); len(got) != 0 {
		t.Fatalf("Sweep on empty runner = %v", got)
	}
	r.WorkflowStarted(1, 0, "resume")
	r.Sweep(600)
	if got := r.Sweep(601); len(got) != 0 {
		t.Fatal("double mitigation")
	}
}

// Property: entries selected by SelectDue always satisfy the due predicate
// and unselected entries never do.
func TestQuickSelectDueCorrect(t *testing.T) {
	f := func(starts []uint32, now uint16, lead uint8, period uint8) bool {
		s := NewMetadataStore()
		for i, st := range starts {
			s.SetPaused(i, int64(st%100000))
		}
		n, l, p := int64(now), int64(lead), int64(period)+1
		due := s.SelectDue(n, l, p)
		dueSet := map[int]bool{}
		for _, db := range due {
			dueSet[db] = true
		}
		for i := range starts {
			start, _ := s.PredictedStart(i)
			want := start > 0 && start <= n+l+p
			if dueSet[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerIncidentEscalation(t *testing.T) {
	r := NewRunner(600)
	r.MitigationFailureProb = 0.5
	for i := 0; i < 400; i++ {
		r.WorkflowStarted(i, 0, "resume")
	}
	mitigated := r.Sweep(600)
	if r.Mitigations+r.Incidents != 400 {
		t.Fatalf("mitigations %d + incidents %d != 400", r.Mitigations, r.Incidents)
	}
	if r.Incidents < 120 || r.Incidents > 280 {
		t.Fatalf("incidents = %d of 400 at p=0.5", r.Incidents)
	}
	if len(mitigated) != r.Mitigations {
		t.Fatalf("returned %d mitigated, counter says %d", len(mitigated), r.Mitigations)
	}
	// Every stuck workflow drained, whichever path it took.
	if len(r.inflight) != 0 {
		t.Fatalf("%d workflows still in flight", len(r.inflight))
	}
}

func TestRunnerNoIncidentsByDefault(t *testing.T) {
	r := NewRunner(600)
	for i := 0; i < 50; i++ {
		r.WorkflowStarted(i, 0, "pause")
	}
	r.Sweep(600)
	if r.Incidents != 0 {
		t.Fatalf("default runner escalated %d incidents", r.Incidents)
	}
	if r.Mitigations != 50 {
		t.Fatalf("mitigations = %d, want 50", r.Mitigations)
	}
}

// selectDueReference is the linear scan SelectDue shipped as before the
// store had a start index, kept verbatim as the oracle: every paused
// database is examined on every call.
func selectDueReference(predStart map[int]int64, now, prewarmLeadSec, periodSec int64) []int {
	var due []int
	cutoff := now + prewarmLeadSec + periodSec
	for db, start := range predStart {
		if start > 0 && start <= cutoff {
			due = append(due, db)
		}
	}
	sort.Ints(due)
	return due
}

// checkIndex verifies the start index against the map: positions round-trip,
// exactly the databases with a positive start are indexed, and no parent
// starts later than its child.
func checkIndex(s *MetadataStore) error {
	indexed := 0
	for id, p := range s.paused {
		switch {
		case p.id != id:
			return fmt.Errorf("paused[%d] holds id %d", id, p.id)
		case p.start <= 0 && p.pos != -1:
			return fmt.Errorf("db %d: start %d but pos %d", id, p.start, p.pos)
		case p.start > 0 && (p.pos < 0 || p.pos >= len(s.byStart) || s.byStart[p.pos] != p):
			return fmt.Errorf("db %d: pos %d does not lead back to it", id, p.pos)
		}
		if p.start > 0 {
			indexed++
		}
	}
	if indexed != len(s.byStart) {
		return fmt.Errorf("%d databases with a prediction, %d index entries", indexed, len(s.byStart))
	}
	for i, p := range s.byStart {
		if p.pos != i {
			return fmt.Errorf("byStart[%d] (db %d) has pos %d", i, p.id, p.pos)
		}
		if parent := s.byStart[(i-1)/2]; i > 0 && parent.start > p.start {
			return fmt.Errorf("byStart[%d] start %d under parent start %d", i, p.start, parent.start)
		}
	}
	return nil
}

// runStoreOps decodes data as a sequence of three-byte store operations,
// applies each to a MetadataStore and to the pre-index model (a plain map
// and the reference scan), and compares the two after every step. Ids and
// starts are drawn from small ranges so re-sets, shared starts and clears
// of paused databases come up constantly.
func runStoreOps(t *testing.T, data []byte) {
	const lead, period = 300, 60
	s := NewMetadataStore()
	model := map[int]int64{}
	startOf := func(b byte) int64 { return int64(b%32)*60 - 60 } // -60, 0, 60 ... 1800
	set := func(id int, start int64) {
		s.SetPaused(id, start)
		model[id] = start
	}
	clear := func(id int) {
		s.ClearPaused(id)
		delete(model, id)
	}
	pausedIDs := func() []int {
		ids := make([]int, 0, len(model))
		for id := range model {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}

	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i]%8, data[i+1], data[i+2]
		desc := fmt.Sprintf("step %d op %d a %d b %d", i/3, op, a, b)
		switch op {
		case 0, 1: // set: a fresh id, or a re-set of whatever a%64 holds
			set(int(a%64), startOf(b))
		case 2: // re-set a paused id to a later, earlier, equal or zero start
			if ids := pausedIDs(); len(ids) > 0 {
				id := ids[int(a)%len(ids)]
				set(id, []int64{model[id] + 60, model[id] - 60, model[id], 0}[b%4])
			}
		case 3: // several ids on one start
			for id := int(a % 64); id <= int(a%64)+int(b%8); id++ {
				set(id, startOf(b/8))
			}
		case 4: // clear: paused or not, as it comes
			clear(int(a % 64))
		case 5: // clear twice
			clear(int(a % 64))
			clear(int(a % 64))
		case 6: // clear an id that was never set
			clear(1000 + int(a))
		case 7: // one resume operation's select → cap → clear
			cfg := Config{OpPeriodSec: period, PrewarmLeadSec: lead, MaxPrewarmsPerOp: []int{0, 1, 100}[a%3]}
			now := startOf(b) - lead - period
			want := selectDueReference(model, now, lead, period)
			if cfg.MaxPrewarmsPerOp > 0 && len(want) > cfg.MaxPrewarmsPerOp {
				want = want[:cfg.MaxPrewarmsPerOp]
			}
			for _, id := range want {
				delete(model, id)
			}
			got := cfg.Cap(s.SelectDue(now, lead, period))
			for _, id := range got {
				s.ClearPaused(id)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Cap(SelectDue) (cap %d, now %d) = %v, reference %v", desc, cfg.MaxPrewarmsPerOp, now, got, want)
			}
		}

		if err := checkIndex(s); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if len(s.paused) != len(model) {
			t.Fatalf("%s: %d paused entries, model %d", desc, len(s.paused), len(model))
		}
		var next int64
		for id := 0; id < 64+8; id++ {
			want, wantOK := model[id]
			if got, ok := s.PredictedStart(id); got != want || ok != wantOK {
				t.Fatalf("%s: PredictedStart(%d) = %d,%v, model %d,%v", desc, id, got, ok, want, wantOK)
			}
			if want > 0 && (next == 0 || want < next) {
				next = want
			}
		}
		if got := s.NextStart(); got != next {
			t.Fatalf("%s: NextStart = %d, model %d", desc, got, next)
		}
		// The cutoff lands on a start (b is a multiple of 60 away), one
		// second short of it, and one past it.
		for _, now := range []int64{startOf(b) - lead - period, startOf(b) - lead - period - 1, startOf(b) - lead - period + 1} {
			got, want := s.SelectDue(now, lead, period), selectDueReference(model, now, lead, period)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SelectDue(now %d) = %v, reference %v", desc, now, got, want)
			}
		}
	}
}

// TestSelectDueMatchesReference drives seeded random operation sequences
// through runStoreOps: the indexed SelectDue and the capped clear must
// agree with the linear scan after every single step.
func TestSelectDueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for seq := 0; seq < 300; seq++ {
		data := make([]byte, 3*(1+rng.Intn(400)))
		rng.Read(data)
		runStoreOps(t, data)
	}
}

// FuzzMetadataStoreOps feeds runStoreOps from fuzzer-chosen bytes. Run with
// `go test -fuzz FuzzMetadataStoreOps ./internal/controlplane`; the seed
// corpus keeps it exercising as a normal test.
func FuzzMetadataStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 2, 10, 2, 0, 1, 7, 1, 10, 4, 1, 0, 5, 2, 0})
	f.Add([]byte{3, 0, 255, 3, 4, 255, 7, 0, 31, 7, 2, 31, 6, 9, 9})
	seed := make([]byte, 600)
	for i := range seed {
		seed[i] = byte(i * 11)
	}
	f.Add(seed)
	f.Fuzz(runStoreOps)
}
