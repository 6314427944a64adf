// Package shardedfleet is the online serving runtime of ProRP: a
// lock-striped fleet that partitions databases across N shards, each shard
// owning its databases (and its slice of the control-plane metadata store)
// behind its own mutex. Unrelated databases therefore never contend — the
// library-scale stand-in for the paper's production per-database sharding
// that a single global mutex cannot provide.
//
// There is one mutation path, as in the paper, where Algorithm 1 runs
// inline on the login or logout that triggers it: Login, Logout, Wake,
// Create and Delete lock the owning shard, apply the event, and return the
// policy effects. Nothing is queued and the runtime owns no goroutine.
//
// The Algorithm 5 proactive-resume beat (RunResumeOp) runs on its caller's
// goroutine. Every shard publishes the earliest predicted start in its
// metadata store in an atomic; the beat reads the 32 atomics, locks only the
// shards that have something due (usually none), merges what their start
// index yields, applies the fleet-wide per-iteration cap, and pre-warms id
// by id. Snapshots (WriteTo) take a consistent fleet image by holding every
// shard lock at once.
package shardedfleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prorp/internal/controlplane"
	"prorp/internal/policy"
	"prorp/internal/telemetry"
)

// DefaultShards is the stripe count used when Config.Shards is 0. It is
// deliberately larger than typical host core counts: stripes are cheap,
// and more stripes mean fewer hash collisions between hot databases.
const DefaultShards = 32

// The sentinel errors classify failures for errors.Is, so hosts (the HTTP
// front end) can map them to status codes and recovery actions. They are
// re-exported at the root as prorp.ErrUnknownDatabase etc., so their
// messages carry no package prefix.
var (
	// ErrUnknownDatabase and ErrDuplicateDatabase classify lookups.
	ErrUnknownDatabase   = errors.New("unknown database")
	ErrDuplicateDatabase = errors.New("database already exists")
)

// Config assembles a runtime.
type Config struct {
	// Shards is the stripe count (default DefaultShards).
	Shards int
	// Policy configures the per-database lifecycle controllers.
	Policy policy.Config
	// Control configures the Algorithm 5 proactive-resume operation. Only
	// validated and used in proactive mode.
	Control controlplane.Config
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("shardedfleet: negative shard count %d", c.Shards)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Policy.Mode == policy.Proactive {
		return c.Control.Validate()
	}
	return nil
}

// Kind classifies a fleet mutation.
type Kind int

const (
	// KindLogin is the start of customer activity.
	KindLogin Kind = iota
	// KindLogout is the end of customer activity.
	KindLogout
	// KindCreate adds a database.
	KindCreate
	// KindDelete drops a database.
	KindDelete
	// KindWake delivers a scheduled wake-up timer.
	KindWake
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindLogin:
		return "login"
	case KindLogout:
		return "logout"
	case KindCreate:
		return "create"
	case KindDelete:
		return "delete"
	case KindWake:
		return "wake"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counters are the runtime's cumulative KPI counters, maintained per shard
// and summed on read.
type Counters struct {
	// Events counts the applied mutations by Kind.
	Events [numKinds]uint64
	// Records counts the transition records of their effects by telemetry
	// kind, as policy.Effects.Records translates them: warm and cold resumes
	// (the paper's QoS numerator and complement), logical and physical
	// pauses, Algorithm 5 pre-warms and how each ended (used or wasted).
	Records [telemetry.NumKinds]uint64
}

func (c *Counters) add(o Counters) {
	for i, n := range o.Events {
		c.Events[i] += n
	}
	for i, n := range o.Records {
		c.Records[i] += n
	}
}

// shard owns a partition of the fleet: its databases, its slice of the
// control-plane metadata store, and its KPI counters.
type shard struct {
	mu   sync.Mutex
	dbs  map[int]*policy.Machine
	meta *controlplane.MetadataStore
	kpi  Counters

	// nextStart is meta.NextStart() as of the last mutation, published under
	// mu so the beat can skip a shard with nothing due without locking it. A
	// beat that races a mutation sees the value from before or after it,
	// exactly as a locked scan would have run before or after it.
	nextStart atomic.Int64
}

// publish refreshes nextStart. Caller holds s.mu and calls it before
// unlocking on every path that may have changed s.meta.
func (s *shard) publish() { s.nextStart.Store(s.meta.NextStart()) }

// Runtime is the sharded fleet engine. Safe for concurrent use.
type Runtime struct {
	cfg    Config
	shards []*shard

	// inst is the attached observability metric set (see Instrument); nil
	// until a host attaches a registry.
	inst instPtr
}

// New builds a runtime. It starts no goroutine and holds no resource, so
// there is nothing to close.
func New(cfg Config) (*Runtime, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range rt.shards {
		rt.shards[i] = &shard{
			dbs:  make(map[int]*policy.Machine),
			meta: controlplane.NewMetadataStore(),
		}
	}
	return rt, nil
}

// NumShards reports the stripe count.
func (rt *Runtime) NumShards() int { return len(rt.shards) }

// shardIndex is FNV-1a over the database id's 8 little-endian bytes.
func (rt *Runtime) shardIndex(id int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	v := uint64(int64(id))
	for i := 0; i < 8; i++ {
		h ^= uint32(byte(v >> (8 * i)))
		h *= prime32
	}
	return int(h % uint32(len(rt.shards)))
}

func (rt *Runtime) shardFor(id int) *shard { return rt.shards[rt.shardIndex(id)] }

// apply performs one mutation of database id at time at (epoch seconds,
// like every internal component). Caller holds s.mu.
func (s *shard) apply(kind Kind, id int, at int64, cfg *Config) (eff policy.Effects, err error) {
	m, exists := s.dbs[id]
	switch {
	case kind == KindCreate && exists:
		return eff, fmt.Errorf("%w: %d", ErrDuplicateDatabase, id)
	case kind != KindCreate && !exists:
		return eff, fmt.Errorf("%w: %d", ErrUnknownDatabase, id)
	}
	switch kind {
	case KindCreate:
		if m, err = policy.New(cfg.Policy, at); err != nil {
			return eff, err
		}
		s.dbs[id] = m
	case KindDelete:
		delete(s.dbs, id)
		s.meta.ClearPaused(id)
	case KindLogin:
		eff = m.OnActivityStart(at)
	case KindLogout:
		eff = m.OnActivityEnd(at)
	case KindWake:
		eff = m.OnTimer(at)
	default:
		return eff, fmt.Errorf("shardedfleet: bad event kind %d", kind)
	}
	s.kpi.Events[kind]++
	s.record(id, eff)
	return eff, nil
}

// record maintains the control-plane metadata (Algorithm 1 line 31 writes,
// reactive-resume clears) and the KPI counters for one transition. Caller
// holds s.mu.
func (s *shard) record(id int, eff policy.Effects) {
	recs := eff.Records()
	for _, kind := range recs.Kinds() {
		s.kpi.Records[kind]++
	}
	if eff.Transition == policy.TransResumeCold {
		s.meta.ClearPaused(id)
	}
	if eff.MetadataSet {
		s.meta.SetPaused(id, eff.MetadataStart)
	}
}

// do applies one mutation under the owning shard's lock.
func (rt *Runtime) do(kind Kind, id int, at int64) (policy.Effects, error) {
	t0, timed := rt.decisionStart()
	s := rt.shardFor(id)
	s.mu.Lock()
	eff, err := s.apply(kind, id, at, &rt.cfg)
	s.publish()
	s.mu.Unlock()
	if timed {
		rt.observeDecision(kind, t0)
	}
	return eff, err
}

// Create adds a new database created at createdAt.
func (rt *Runtime) Create(id int, createdAt int64) error {
	_, err := rt.do(KindCreate, id, createdAt)
	return err
}

// Delete drops a database and its control-plane metadata.
func (rt *Runtime) Delete(id int) error {
	_, err := rt.do(KindDelete, id, 0)
	return err
}

// Login records the start of customer activity.
func (rt *Runtime) Login(id int, at int64) (policy.Effects, error) {
	return rt.do(KindLogin, id, at)
}

// Logout records the end of customer activity.
func (rt *Runtime) Logout(id int, at int64) (policy.Effects, error) {
	return rt.do(KindLogout, id, at)
}

// Wake delivers a scheduled wake-up.
func (rt *Runtime) Wake(id int, at int64) (policy.Effects, error) {
	return rt.do(KindWake, id, at)
}

// View runs f on the database's controller under the owning shard's lock.
// f must not retain the machine or call back into the runtime.
func (rt *Runtime) View(id int, f func(*policy.Machine)) error {
	s := rt.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.dbs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDatabase, id)
	}
	f(m)
	return nil
}

// State reports a database's lifecycle state.
func (rt *Runtime) State(id int) (policy.State, error) {
	var st policy.State
	err := rt.View(id, func(m *policy.Machine) { st = m.State() })
	return st, err
}

// Size reports the number of databases.
func (rt *Runtime) Size() int {
	n := 0
	for _, s := range rt.shards {
		s.mu.Lock()
		n += len(s.dbs)
		s.mu.Unlock()
	}
	return n
}

// IDs returns every database id in the fleet, sorted.
func (rt *Runtime) IDs() []int {
	var ids []int
	for _, s := range rt.shards {
		s.mu.Lock()
		for id := range s.dbs {
			ids = append(ids, id)
		}
		s.mu.Unlock()
	}
	sort.Ints(ids)
	return ids
}

// PendingWakes reports every database's pending wake-up, by id.
func (rt *Runtime) PendingWakes() []PendingWake {
	var wakes []PendingWake
	for _, s := range rt.shards {
		s.mu.Lock()
		for id, m := range s.dbs {
			if at := m.Timer(); at > 0 {
				wakes = append(wakes, PendingWake{ID: id, WakeAt: at})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(wakes, func(i, j int) bool { return wakes[i].ID < wakes[j].ID })
	return wakes
}

// PausedCount reports how many databases are physically paused. It reads
// the lifecycle states, the one source the KPI gauges read too: the
// metadata store indexes proactive-mode pauses only.
func (rt *Runtime) PausedCount() int {
	_, _, physical := rt.StateCounts()
	return physical
}

// StateCounts tallies databases by lifecycle state.
func (rt *Runtime) StateCounts() (resumed, logical, physical int) {
	for _, s := range rt.shards {
		s.mu.Lock()
		for _, m := range s.dbs {
			switch m.State() {
			case policy.Resumed:
				resumed++
			case policy.LogicallyPaused:
				logical++
			case policy.PhysicallyPaused:
				physical++
			}
		}
		s.mu.Unlock()
	}
	return resumed, logical, physical
}

// KPI sums the per-shard counters.
func (rt *Runtime) KPI() Counters {
	var total Counters
	for _, s := range rt.shards {
		s.mu.Lock()
		total.add(s.kpi)
		s.mu.Unlock()
	}
	return total
}

// Prewarmed pairs a pre-warmed database with the effects of its pre-warm.
type Prewarmed struct {
	ID      int
	Effects policy.Effects
}

// RunResumeOp runs one iteration of the proactive resume operation
// (Algorithm 5) across all shards: phase one collects the due databases
// from the shards that have any, the merged set is capped fleet-wide
// (MaxPrewarmsPerOp; overflow stays for the next iteration), and phase two
// pre-warms the survivors. Both phases run on the caller's goroutine.
// Results are sorted by database id.
func (rt *Runtime) RunResumeOp(now int64) []Prewarmed {
	if rt.cfg.Policy.Mode != policy.Proactive {
		return nil
	}
	if inst := rt.inst.Load(); inst != nil {
		defer inst.scan.ObserveSince(time.Now())
	}
	merged := rt.scanDue(now)
	if cap := rt.cfg.Control.MaxPrewarmsPerOp; cap > 0 && len(merged) > cap {
		merged = merged[:cap]
	}
	return rt.prewarmIDs(now, merged)
}

// DueForResume runs phase one of Algorithm 5 alone: the read-only metadata
// scan for due databases, uncapped and sorted. Multi-group deployments call
// this on every group and apply the prewarm cap to the merged result.
func (rt *Runtime) DueForResume(now int64) []int {
	if rt.cfg.Policy.Mode != policy.Proactive {
		return nil
	}
	if inst := rt.inst.Load(); inst != nil {
		defer inst.scan.ObserveSince(time.Now())
	}
	return rt.scanDue(now)
}

// PrewarmIDs runs phase two of Algorithm 5 over an explicit id set (the
// caller has already applied whatever cap it wants): each id is re-checked
// under its shard lock and pre-warmed if it is still physically paused and
// still due. Results are sorted by database id.
func (rt *Runtime) PrewarmIDs(now int64, ids []int) []Prewarmed {
	if rt.cfg.Policy.Mode != policy.Proactive {
		return nil
	}
	out := rt.prewarmIDs(now, ids)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// scanDue collects the due databases of every shard into one sorted slice.
// A shard whose published earliest start is not due is skipped without
// taking its lock, so a beat with nothing due touches no mutex at all.
func (rt *Runtime) scanDue(now int64) []int {
	lead, period := rt.cfg.Control.PrewarmLeadSec, rt.cfg.Control.OpPeriodSec
	var merged []int
	for _, s := range rt.shards {
		if !controlplane.Due(s.nextStart.Load(), now, lead, period) {
			continue
		}
		s.mu.Lock()
		merged = append(merged, s.meta.SelectDue(now, lead, period)...)
		s.mu.Unlock()
	}
	sort.Ints(merged)
	return merged
}

// prewarmIDs pre-warms the given databases one by one, each under its
// shard's lock, and reports them in the order given.
func (rt *Runtime) prewarmIDs(now int64, ids []int) []Prewarmed {
	lead, period := rt.cfg.Control.PrewarmLeadSec, rt.cfg.Control.OpPeriodSec
	var out []Prewarmed
	for _, id := range ids {
		s := rt.shardFor(id)
		s.mu.Lock()
		if eff, ok := s.prewarm(id, now, lead, period); ok {
			out = append(out, Prewarmed{ID: id, Effects: eff})
		}
		s.mu.Unlock()
	}
	return out
}

// prewarm pre-warms one database if it is still physically paused and its
// stored prediction is still due: since the scan phase it may have resumed,
// been deleted or been pre-warmed — or resumed and paused again under a
// later prediction, which is the next beat's business. Caller holds s.mu.
func (s *shard) prewarm(id int, now, lead, period int64) (policy.Effects, bool) {
	if start, ok := s.meta.PredictedStart(id); !ok || !controlplane.Due(start, now, lead, period) {
		return policy.Effects{}, false
	}
	s.meta.ClearPaused(id)
	s.publish()
	m, ok := s.dbs[id]
	if !ok {
		return policy.Effects{}, false
	}
	eff := m.OnPrewarm(now)
	if eff.Transition != policy.TransPrewarm {
		return eff, false // stale entry
	}
	s.record(id, eff)
	return eff, true
}
