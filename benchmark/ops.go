package main

import (
	"math/rand"
	"sync"
)

type opKind uint8

const (
	opLogin opKind = iota
	opLogout
	opGet
	opBeat // POST /v1/ops/resume: one Algorithm 5 iteration
	opKPI  // GET /v1/kpi: a scatter-gather on routed-3g
	numOpKinds
)

var opKindNames = [numOpKinds]string{"login", "logout", "get", "beat", "kpi"}

func (k opKind) String() string { return opKindNames[k] }

// op is one request of the stream. Seq counts the writes the database has
// seen in the stream up to and including this op; targets that assign event
// times themselves (the in-process ones) add it, in seconds, to the clock so
// that a database's consecutive events land in distinct seconds.
type op struct {
	Kind opKind
	DB   int32
	Seq  int32
}

// opStream deals the workload's requests, one at a time, to however many
// callers ask. The sequence is a function of the seed and the seeded
// fleet's active set alone — which caller takes which op, and when, does
// not change it.
//
// Mix: 20 % reads (GET /v1/db/{id}, database picked uniformly) and 80 %
// writes. A write picks a database uniformly among those not written in the
// last minGap writes and toggles it: a login if it is idle, a logout if it
// is active, so every login follows an idle gap and every logout an active
// one. minGap is three quarters of the fleet, which keeps consecutive events
// on one database seconds apart at any rate the server can sustain (the
// history table is unique on whole seconds; see spacing). Picking uniformly
// keeps the mix even in time — a first-in-first-out walk keeps the databases
// that were active at seed time, whose logouts skip Algorithm 4, bunched
// together for the whole run — and lets the login:logout ratio settle at 1:1
// whatever the share of databases active at seed time. Every beatEvery-th op
// is a beat; every kpiEvery-th (0 = never) a fleet-wide KPI read.
type opStream struct {
	mu        sync.Mutex
	rng       *rand.Rand
	active    []bool
	visits    []int32
	lastWrite []int // index of the database's latest write, counted in writes
	writes    int
	minGap    int
	emitted   int
	beatEvery int
	kpiEvery  int
}

func newOpStream(seed int64, active []bool, beatEvery, kpiEvery int) *opStream {
	n := len(active)
	s := &opStream{
		rng:       rand.New(rand.NewSource(seed)),
		active:    append([]bool(nil), active...),
		visits:    make([]int32, n),
		lastWrite: make([]int, n),
		minGap:    n * 3 / 4,
		beatEvery: beatEvery,
		kpiEvery:  kpiEvery,
	}
	for i := range s.lastWrite {
		s.lastWrite[i] = -s.minGap
	}
	return s
}

// next returns the stream's next op.
func (s *opStream) next() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emitted++
	if s.emitted%s.beatEvery == 0 {
		return op{Kind: opBeat}
	}
	if s.kpiEvery > 0 && s.emitted%s.kpiEvery == 0 {
		return op{Kind: opKPI}
	}
	n := len(s.visits)
	if s.rng.Float64() < 0.2 {
		id := int32(s.rng.Intn(n))
		return op{Kind: opGet, DB: id, Seq: s.visits[id]}
	}
	// A quarter of the fleet is eligible at any time: four draws on average.
	id := s.rng.Intn(n)
	for s.writes-s.lastWrite[id] < s.minGap {
		id = s.rng.Intn(n)
	}
	s.writes++
	s.lastWrite[id] = s.writes
	s.visits[id]++
	s.active[id] = !s.active[id]
	kind := opLogout
	if s.active[id] {
		kind = opLogin
	}
	return op{Kind: kind, DB: int32(id), Seq: s.visits[id]}
}

// take returns the next n ops.
func (s *opStream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
