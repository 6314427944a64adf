package controlplane

import (
	"errors"
	"fmt"
	"io"

	"prorp/internal/policy"
)

// The sentinel errors classify failures for errors.Is, so hosts (the HTTP
// front end) can map them to status codes and recovery actions. They are
// re-exported at the root as prorp.ErrUnknownDatabase etc., so their
// messages carry no package prefix.
var (
	// ErrUnknownDatabase and ErrDuplicateDatabase classify lookups.
	ErrUnknownDatabase   = errors.New("unknown database")
	ErrDuplicateDatabase = errors.New("database already exists")
)

// Kind classifies a mutation of a Partition.
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
	// NumKinds sizes arrays indexed by Kind.
	NumKinds
)

var kindNames = [NumKinds]string{"login", "logout", "create", "delete", "wake"}

func (k Kind) String() string {
	if k >= 0 && k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Prewarmed pairs a pre-warmed database with the effects of its pre-warm.
type Prewarmed struct {
	ID      int
	Effects policy.Effects
}

// Partition is the one lifecycle core: a set of databases' Algorithm 1
// machines, the metadata store Algorithm 5 reads, and every rule that ties
// the two together. The simulator drives one from its event queue, each
// shard of the serving fleet one behind its lock; a Partition takes no lock
// itself. Every metadata entry names a database in the partition.
type Partition struct {
	cfg  policy.Config
	dbs  map[int]*policy.Machine
	meta *MetadataStore
}

// NewPartition returns an empty partition whose databases run cfg.
func NewPartition(cfg policy.Config) *Partition {
	return &Partition{cfg: cfg, dbs: make(map[int]*policy.Machine), meta: NewMetadataStore()}
}

// Apply performs one mutation of database id at time at (epoch seconds)
// and returns the policy's effects. Creating an existing id fails with
// ErrDuplicateDatabase, any other kind on a missing id with
// ErrUnknownDatabase.
func (p *Partition) Apply(kind Kind, id int, at int64) (eff policy.Effects, err error) {
	m, exists := p.dbs[id]
	switch {
	case kind == KindCreate && exists:
		return eff, fmt.Errorf("%w: %d", ErrDuplicateDatabase, id)
	case kind != KindCreate && !exists:
		return eff, fmt.Errorf("%w: %d", ErrUnknownDatabase, id)
	}
	switch kind {
	case KindCreate:
		if m, err = policy.New(p.cfg, at); err != nil {
			return eff, err
		}
		p.dbs[id] = m
	case KindDelete:
		delete(p.dbs, id)
		p.meta.ClearPaused(id)
	case KindLogin:
		eff = m.OnActivityStart(at)
	case KindLogout:
		eff = m.OnActivityEnd(at)
	case KindWake:
		eff = m.OnTimer(at)
	default:
		return eff, fmt.Errorf("controlplane: bad event kind %d", kind)
	}
	p.write(id, eff)
	return eff, nil
}

// write is the one rule from a transition to the metadata store: a cold
// resume clears the database's entry, and a proactive physical pause
// records its predicted start (Algorithm 1 line 31). A reactive physical
// pause records nothing: no beat runs in reactive mode.
func (p *Partition) write(id int, eff policy.Effects) {
	if eff.Transition == policy.TransResumeCold {
		p.meta.ClearPaused(id)
	}
	if eff.MetadataSet {
		p.meta.SetPaused(id, eff.MetadataStart)
	}
}

// Restore adds one snapshotted database (policy wire format); in proactive
// mode a physically paused one is registered under its predicted start.
// wakeAt is non-zero when the database was logically paused and its host
// must deliver a wake at (or after) that time.
func (p *Partition) Restore(id int, r io.Reader) (wakeAt int64, err error) {
	if _, exists := p.dbs[id]; exists {
		return 0, fmt.Errorf("%w: %d", ErrDuplicateDatabase, id)
	}
	m, err := policy.Restore(p.cfg, r)
	if err != nil {
		return 0, err
	}
	p.dbs[id] = m
	if m.State() == policy.PhysicallyPaused && p.cfg.Mode == policy.Proactive {
		p.meta.SetPaused(id, m.NextActivity().Start)
	}
	return m.RestoredTimer(), nil
}

// Due is the SELECT of Algorithm 5: the physically paused databases whose
// predicted start is Due at now, sorted by id.
func (p *Partition) Due(now int64, cfg Config) []int {
	return p.meta.SelectDue(now, cfg.PrewarmLeadSec, cfg.OpPeriodSec)
}

// NextStart is the earliest predicted start in the metadata store (0 when
// none): Due is empty unless it is Due.
func (p *Partition) NextStart() int64 { return p.meta.NextStart() }

// Cap applies the per-iteration pre-warm cap to a sorted due list: the
// lowest ids win and the overflow stays in the store for the next
// iteration.
func (c Config) Cap(due []int) []int {
	if c.MaxPrewarmsPerOp > 0 && len(due) > c.MaxPrewarmsPerOp {
		return due[:c.MaxPrewarmsPerOp]
	}
	return due
}

// Prewarm pre-warms database id if its stored prediction is still due at
// now: since it was selected it may have resumed, been deleted or been
// pre-warmed — or paused again under a later prediction, a later beat's
// business. A due entry is cleared whatever the machine answers.
func (p *Partition) Prewarm(id int, now int64, cfg Config) (policy.Effects, bool) {
	if start, ok := p.meta.PredictedStart(id); !ok || !Due(start, now, cfg.PrewarmLeadSec, cfg.OpPeriodSec) {
		return policy.Effects{}, false
	}
	p.meta.ClearPaused(id)
	eff := p.dbs[id].OnPrewarm(now)
	if eff.Transition != policy.TransPrewarm {
		return eff, false // stale entry
	}
	p.write(id, eff)
	return eff, true
}

// ResumeOp is one iteration of Algorithm 5 over the partition: Prewarm
// over the capped Due list.
func (p *Partition) ResumeOp(cfg Config, now int64) []Prewarmed {
	var out []Prewarmed
	for _, id := range cfg.Cap(p.Due(now, cfg)) {
		if eff, ok := p.Prewarm(id, now, cfg); ok {
			out = append(out, Prewarmed{ID: id, Effects: eff})
		}
	}
	return out
}

// Machine returns database id's policy machine. The caller must not apply
// events to it: they go through Apply, which keeps the metadata in step.
func (p *Partition) Machine(id int) (*policy.Machine, bool) {
	m, ok := p.dbs[id]
	return m, ok
}

// Len reports the number of databases.
func (p *Partition) Len() int { return len(p.dbs) }

// Range calls f for every database, in no particular order.
func (p *Partition) Range(f func(id int, m *policy.Machine)) {
	for id, m := range p.dbs {
		f(id, m)
	}
}
