package prorp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fuzzSteps is how far the clock moves before an operation: the low nibble
// of the operation's second byte indexes it. The table mixes the policy's
// own scales — the 5-minute slide and lead, the 1-hour logical pause, an
// office day and the gaps around it — so short inputs reach physical
// pauses, predictions and due pre-warms.
var fuzzSteps = [16]time.Duration{
	0, time.Minute, 5 * time.Minute, 10 * time.Minute,
	30 * time.Minute, time.Hour, 2 * time.Hour, 4 * time.Hour,
	7 * time.Hour, 8 * time.Hour, 13*time.Hour + 55*time.Minute, 16 * time.Hour,
	23 * time.Hour, 24 * time.Hour, 25 * time.Hour, 72 * time.Hour,
}

// The operations a fuzz input is decoded into. Each takes two bytes: the
// first is kind + 8·id (ids 0..3), the second indexes fuzzSteps with its low
// nibble, and with fuzzRetry set repeats a login or idle at once — a client
// retrying a request whose first copy was applied.
const (
	fuzzCreate = iota
	fuzzLogin
	fuzzIdle
	fuzzWake // the id's pending wake-up, at its WakeAt (or now, if later)
	fuzzBeat // one Algorithm 5 iteration
	fuzzDelete
	fuzzArchive // WriteTo on both, each restored from the other's bytes
	fuzzTimers  // every pending wake-up due by now, earliest first
	fuzzKinds
)

const (
	fuzzIDs   = 4
	fuzzRetry = 0x10
)

// fuzzOp encodes one operation for the seed corpus.
func fuzzOp(kind, id, step int) []byte { return []byte{byte(kind + fuzzKinds*id), byte(step)} }

// fuzzOps concatenates encoded operations.
func fuzzOps(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// fleetFuzzSeeds are the hand-written starting points: a daily office
// pattern on three databases — one more than the prewarm cap — through
// prewarms, archives and deletes, and every error path.
func fleetFuzzSeeds() [][]byte {
	office := [][]byte{fuzzOp(fuzzCreate, 0, 0), fuzzOp(fuzzCreate, 1, 1), fuzzOp(fuzzCreate, 2, 1)}
	for day := 0; day < 4; day++ {
		office = append(office,
			fuzzOp(fuzzIdle, 0, 9), fuzzOp(fuzzIdle, 1, 1), fuzzOp(fuzzIdle, 2, 1), // 17:00
			fuzzOp(fuzzTimers, 0, 6), // 19:00: the logical pauses run out
			fuzzOp(fuzzBeat, 0, 10),  // 08:55: the lead before 09:00
			fuzzOp(fuzzBeat, 0, 1),   // the capped-out third
			fuzzOp(fuzzLogin, 0, 2), fuzzOp(fuzzLogin, 1, 1), fuzzOp(fuzzLogin, 2, 1),
		)
		if day == 2 {
			office = append(office, fuzzOp(fuzzArchive, 0, 0))
		}
	}
	office = append(office, fuzzOp(fuzzIdle, 0, 9), fuzzOp(fuzzTimers, 0, 6),
		fuzzOp(fuzzArchive, 0, 0), fuzzOp(fuzzDelete, 1, 0), fuzzOp(fuzzBeat, 0, 10))
	errs := fuzzOps(
		fuzzOp(fuzzLogin, 3, 0), fuzzOp(fuzzIdle, 3, 0), fuzzOp(fuzzWake, 3, 0),
		fuzzOp(fuzzDelete, 3, 0), fuzzOp(fuzzCreate, 3, 0), fuzzOp(fuzzCreate, 3, 1),
		fuzzOp(fuzzIdle, 3, 5), fuzzOp(fuzzWake, 3, 0), fuzzOp(fuzzDelete, 3, 0),
		fuzzOp(fuzzDelete, 3, 0), fuzzOp(fuzzArchive, 0, 0),
	)
	return [][]byte{fuzzOps(office...), errs, nil}
}

// FuzzFleetMatchesReference runs one operation sequence on the reference
// Fleet and on ShardedFleet, in both modes and with one and five shards,
// and requires the two to agree after every step: the same Decisions,
// states, prewarm sets, pending wakes and archive bytes, the same errors
// under errors.Is, and on each side a PausedCount equal to the number of
// databases in PhysicallyPaused. It also models a host's wake timers — a
// map reconciled from every Decision's WakeAt, as the server's is — and
// requires it to equal ShardedFleet.PendingWakes after every step: a
// Decision's WakeAt is the complete timer state, duplicates included.
func FuzzFleetMatchesReference(f *testing.F) {
	for _, seed := range fleetFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []Mode{Reactive, Proactive} {
			for _, shards := range []int{1, 5} {
				runFleetPair(t, mode, shards, data)
			}
		}
	})
}

// fleetPair drives the reference and the sharded fleet in lockstep.
type fleetPair struct {
	t      *testing.T
	label  string
	opts   Options
	shards int
	ref    fleetRef
	sh     *ShardedFleet
	now    time.Time
	wakes  map[int]time.Time // pending wake-ups, as the Decisions asked
}

func runFleetPair(t *testing.T, mode Mode, shards int, data []byte) {
	opts := DefaultOptions()
	opts.Mode = mode
	opts.History = 7 * 24 * time.Hour // one matching day predicts
	opts.LogicalPause = time.Hour
	opts.MaxPrewarmsPerOp = 2 // small enough for the cap to bind
	p := &fleetPair{
		t:      t,
		label:  fmt.Sprintf("%v/shards=%d", mode, shards),
		opts:   opts,
		shards: shards,
		now:    t0.Add(9 * time.Hour),
		wakes:  make(map[int]time.Time),
	}
	fl, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	p.ref = fleetRef{fl}
	if p.sh, err = NewShardedFleetShards(opts, shards); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(data); i += 2 {
		kind, id := int(data[i])%fuzzKinds, int(data[i])/fuzzKinds%fuzzIDs
		p.now = p.now.Add(fuzzSteps[data[i+1]%16])
		p.step(i/2, kind, id)
		if data[i+1]&fuzzRetry != 0 && (kind == fuzzLogin || kind == fuzzIdle) {
			p.step(i/2, kind, id)
		}
		p.check(i / 2)
	}
}

func (p *fleetPair) fatalf(op int, format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("%s op %d @%s: %s", p.label, op, p.now.Format("Jan 2 15:04"), fmt.Sprintf(format, args...))
}

// errClass is what a host can tell about an error: its sentinel.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrUnknownDatabase):
		return "unknown"
	case errors.Is(err, ErrDuplicateDatabase):
		return "duplicate"
	case errors.Is(err, ErrCorruptArchive):
		return "corrupt"
	}
	return "other: " + err.Error()
}

func (p *fleetPair) sameErr(op int, what string, ref, sh error) bool {
	p.t.Helper()
	if rc, sc := errClass(ref), errClass(sh); rc != sc {
		p.fatalf(op, "%s: reference error %v, sharded %v", what, ref, sh)
	}
	return ref == nil
}

// decided compares one Decision pair and tracks the wake-up it asks for.
func (p *fleetPair) decided(op int, what string, id int, ref, sh Decision) {
	p.t.Helper()
	if ref != sh {
		p.fatalf(op, "%s %d: reference %+v, sharded %+v", what, id, ref, sh)
	}
	if ref.WakeAt.IsZero() {
		delete(p.wakes, id)
	} else {
		p.wakes[id] = ref.WakeAt
	}
}

func (p *fleetPair) wake(op, id int, at time.Time) {
	p.t.Helper()
	if at.Before(p.now) {
		at = p.now
	}
	p.now = at
	dr, er := p.ref.Wake(id, at)
	ds, es := p.sh.Wake(id, at)
	if p.sameErr(op, "wake", er, es) {
		p.decided(op, "wake", id, dr, ds)
	}
}

func (p *fleetPair) step(op, kind, id int) {
	p.t.Helper()
	switch kind {
	case fuzzCreate:
		p.sameErr(op, "create", p.ref.Create(id, p.now), p.sh.Create(id, p.now))
	case fuzzLogin:
		dr, er := p.ref.Login(id, p.now)
		ds, es := p.sh.Login(id, p.now)
		if p.sameErr(op, "login", er, es) {
			p.decided(op, "login", id, dr, ds)
		}
	case fuzzIdle:
		dr, er := p.ref.Idle(id, p.now)
		ds, es := p.sh.Idle(id, p.now)
		if p.sameErr(op, "idle", er, es) {
			p.decided(op, "idle", id, dr, ds)
		}
	case fuzzWake:
		at, ok := p.wakes[id]
		if !ok {
			if _, err := p.ref.State(id); err == nil {
				return // nothing owed
			}
			at = p.now // the unknown-database path
		}
		p.wake(op, id, at)
	case fuzzTimers:
		for {
			id, due := -1, time.Time{}
			for w, at := range p.wakes {
				if !at.After(p.now) && (id < 0 || at.Before(due) || at.Equal(due) && w < id) {
					id, due = w, at
				}
			}
			if id < 0 {
				return
			}
			p.wake(op, id, due)
		}
	case fuzzBeat:
		ref, sh := p.ref.RunResumeOp(p.now), p.sh.RunResumeOp(p.now)
		if len(ref) != len(sh) {
			p.fatalf(op, "beat: reference prewarmed %+v, sharded %+v", ref, sh)
		}
		for i := range ref {
			if ref[i].ID != sh[i].ID {
				p.fatalf(op, "beat: reference prewarmed %+v, sharded %+v", ref, sh)
			}
			p.decided(op, "prewarm", ref[i].ID, ref[i].Decision, sh[i].Decision)
		}
	case fuzzDelete:
		if p.sameErr(op, "delete", p.ref.Delete(id), p.sh.Delete(id)) {
			delete(p.wakes, id)
		}
	case fuzzArchive:
		p.roundTrip(op)
	}
}

// roundTrip archives both fleets, requires equal bytes, and carries on with
// each side restored from the other's archive and the pending wake-ups the
// restores hand back, which must agree too.
func (p *fleetPair) roundTrip(op int) {
	p.t.Helper()
	var ra, sa bytes.Buffer
	_, er := p.ref.WriteTo(&ra)
	_, es := p.sh.WriteTo(&sa)
	if er != nil || es != nil {
		p.fatalf(op, "archive: reference %v, sharded %v", er, es)
	}
	if !bytes.Equal(ra.Bytes(), sa.Bytes()) {
		p.fatalf(op, "archive bytes differ: reference %d bytes, sharded %d", ra.Len(), sa.Len())
	}
	fl, rw, er := RestoreFleet(p.opts, bytes.NewReader(sa.Bytes()))
	sh, sw, es := RestoreShardedFleet(p.opts, p.shards, bytes.NewReader(ra.Bytes()))
	if er != nil || es != nil {
		p.fatalf(op, "restore: reference %v, sharded %v", er, es)
	}
	if fmt.Sprint(rw) != fmt.Sprint(sw) {
		p.fatalf(op, "restored wakes: reference %v, sharded %v", rw, sw)
	}
	p.ref, p.sh = fleetRef{fl}, sh
	clear(p.wakes)
	for _, w := range rw {
		p.wakes[w.ID] = w.WakeAt
	}
}

// check compares the two fleets' states and their paused counts.
func (p *fleetPair) check(op int) {
	p.t.Helper()
	paused := 0
	for id := 0; id < fuzzIDs; id++ {
		rs, er := p.ref.State(id)
		ss, es := p.sh.State(id)
		if p.sameErr(op, "state", er, es) {
			if rs != ss {
				p.fatalf(op, "state %d: reference %v, sharded %v", id, rs, ss)
			}
			if rs == PhysicallyPaused {
				paused++
			}
		}
	}
	if rs, ss := p.ref.Size(), p.sh.Size(); rs != ss {
		p.fatalf(op, "size: reference %d, sharded %d", rs, ss)
	}
	if rp, sp := p.ref.PausedCount(), p.sh.PausedCount(); rp != paused || sp != paused {
		p.fatalf(op, "PausedCount: reference %d, sharded %d, physically paused %d", rp, sp, paused)
	}
	pending := p.sh.PendingWakes()
	same := len(pending) == len(p.wakes)
	for _, w := range pending {
		same = same && p.wakes[w.ID].Equal(w.WakeAt)
	}
	if !same {
		p.fatalf(op, "the wakes reconciled from Decisions %v are not the fleet's pending %v", p.wakes, pending)
	}
}
