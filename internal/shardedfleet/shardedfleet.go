// Package shardedfleet is the online serving runtime of ProRP: a
// lock-striped fleet that partitions databases across N shards, each shard
// one controlplane.Partition — the lifecycle core the simulator drives too
// — behind its own mutex. Unrelated databases therefore never contend —
// the library-scale stand-in for the paper's production per-database
// sharding that a single global mutex cannot provide.
//
// There is one mutation path, as in the paper, where Algorithm 1 runs
// inline on the login or logout that triggers it: Login, Logout, Wake,
// Create and Delete lock the owning shard, apply the event to its
// Partition, and return the policy effects. Nothing is queued and the
// runtime owns no goroutine.
//
// The Algorithm 5 proactive-resume beat (RunResumeOp) runs on its caller's
// goroutine. Every shard publishes its Partition's earliest predicted start
// in an atomic; the beat reads the 32 atomics, locks only the shards that
// have something due (usually none), merges their Due lists, applies the
// one per-iteration cap fleet-wide, and pre-warms id by id. Snapshots
// (WriteTo) take a consistent fleet image by holding every shard lock at
// once.
package shardedfleet

import (
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

// Counters are the runtime's cumulative KPI counters, maintained per shard
// and summed on read.
type Counters struct {
	// Events counts the applied mutations by controlplane.Kind.
	Events [controlplane.NumKinds]uint64
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

// shard owns a partition of the fleet behind its lock, and its KPI
// counters.
type shard struct {
	mu   sync.Mutex
	part *controlplane.Partition
	kpi  Counters

	// nextStart is part.NextStart() as of the last mutation, published under
	// mu so the beat can skip a shard with nothing due without locking it. A
	// beat that races a mutation sees the value from before or after it,
	// exactly as a locked scan would have run before or after it.
	nextStart atomic.Int64
}

// publish refreshes nextStart. Caller holds s.mu and calls it before
// unlocking on every path that may have changed s.part.
func (s *shard) publish() { s.nextStart.Store(s.part.NextStart()) }

// count adds one transition's records to the KPI counters. Caller holds
// s.mu.
func (s *shard) count(eff policy.Effects) {
	recs := eff.Records()
	for _, kind := range recs.Kinds() {
		s.kpi.Records[kind]++
	}
}

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
		rt.shards[i] = &shard{part: controlplane.NewPartition(cfg.Policy)}
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

// do applies one mutation under the owning shard's lock.
func (rt *Runtime) do(kind controlplane.Kind, id int, at int64) (policy.Effects, error) {
	t0, timed := rt.decisionStart()
	s := rt.shardFor(id)
	s.mu.Lock()
	eff, err := s.part.Apply(kind, id, at)
	if err == nil {
		s.kpi.Events[kind]++
		s.count(eff)
	}
	s.publish()
	s.mu.Unlock()
	if timed {
		rt.observeDecision(kind, t0)
	}
	return eff, err
}

// Create adds a new database created at createdAt.
func (rt *Runtime) Create(id int, createdAt int64) error {
	_, err := rt.do(controlplane.KindCreate, id, createdAt)
	return err
}

// Delete drops a database and its control-plane metadata.
func (rt *Runtime) Delete(id int) error {
	_, err := rt.do(controlplane.KindDelete, id, 0)
	return err
}

// Login records the start of customer activity.
func (rt *Runtime) Login(id int, at int64) (policy.Effects, error) {
	return rt.do(controlplane.KindLogin, id, at)
}

// Logout records the end of customer activity.
func (rt *Runtime) Logout(id int, at int64) (policy.Effects, error) {
	return rt.do(controlplane.KindLogout, id, at)
}

// Wake delivers a scheduled wake-up.
func (rt *Runtime) Wake(id int, at int64) (policy.Effects, error) {
	return rt.do(controlplane.KindWake, id, at)
}

// View runs f on the database's controller under the owning shard's lock.
// f must not retain the machine or call back into the runtime.
func (rt *Runtime) View(id int, f func(*policy.Machine)) error {
	s := rt.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.part.Machine(id)
	if !ok {
		return fmt.Errorf("%w: %d", controlplane.ErrUnknownDatabase, id)
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
		n += s.part.Len()
		s.mu.Unlock()
	}
	return n
}

// IDs returns every database id in the fleet, sorted.
func (rt *Runtime) IDs() []int {
	var ids []int
	for _, s := range rt.shards {
		s.mu.Lock()
		s.part.Range(func(id int, _ *policy.Machine) { ids = append(ids, id) })
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
		s.part.Range(func(id int, m *policy.Machine) {
			if at := m.Timer(); at > 0 {
				wakes = append(wakes, PendingWake{ID: id, WakeAt: at})
			}
		})
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
		s.part.Range(func(_ int, m *policy.Machine) {
			switch m.State() {
			case policy.Resumed:
				resumed++
			case policy.LogicallyPaused:
				logical++
			case policy.PhysicallyPaused:
				physical++
			}
		})
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

// RunResumeOp runs one iteration of the proactive resume operation
// (Algorithm 5) across all shards: phase one collects the due databases
// from the shards that have any, the merged set is capped fleet-wide
// (MaxPrewarmsPerOp; overflow stays for the next iteration), and phase two
// pre-warms the survivors. Both phases run on the caller's goroutine.
// Results are sorted by database id.
func (rt *Runtime) RunResumeOp(now int64) []controlplane.Prewarmed {
	if rt.cfg.Policy.Mode != policy.Proactive {
		return nil
	}
	if inst := rt.inst.Load(); inst != nil {
		defer inst.scan.ObserveSince(time.Now())
	}
	return rt.prewarmIDs(now, rt.cfg.Control.Cap(rt.scanDue(now)))
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
func (rt *Runtime) PrewarmIDs(now int64, ids []int) []controlplane.Prewarmed {
	out := rt.prewarmIDs(now, ids)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// scanDue merges the Due lists of every shard into one sorted slice. A
// shard whose published earliest start is not due is skipped without
// taking its lock, so a beat with nothing due touches no mutex at all.
func (rt *Runtime) scanDue(now int64) []int {
	ctl := rt.cfg.Control
	var merged []int
	for _, s := range rt.shards {
		if !controlplane.Due(s.nextStart.Load(), now, ctl.PrewarmLeadSec, ctl.OpPeriodSec) {
			continue
		}
		s.mu.Lock()
		merged = append(merged, s.part.Due(now, ctl)...)
		s.mu.Unlock()
	}
	sort.Ints(merged)
	return merged
}

// prewarmIDs pre-warms the given databases one by one, each under its
// shard's lock, and reports them in the order given.
func (rt *Runtime) prewarmIDs(now int64, ids []int) []controlplane.Prewarmed {
	var out []controlplane.Prewarmed
	for _, id := range ids {
		s := rt.shardFor(id)
		s.mu.Lock()
		if eff, ok := s.part.Prewarm(id, now, rt.cfg.Control); ok {
			s.count(eff)
			out = append(out, controlplane.Prewarmed{ID: id, Effects: eff})
		}
		s.publish()
		s.mu.Unlock()
	}
	return out
}
