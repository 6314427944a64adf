// Package repl is the primary/replica replication runtime: it ships the
// event journal (internal/wal) over HTTP from a primary to any number of
// read replicas, and manages the role/epoch state machine that makes
// failover safe.
//
// The model, in one paragraph: the primary's WAL already is the
// authoritative, acknowledged event stream (every mutation is journaled
// before it is acknowledged), so replication is just shipping that stream.
// A follower holds a long poll on
// GET /v1/repl/stream?after=<segment:offset> — the primary answers with a
// batch of CRC-framed records the moment one is durable, and the
// follower's next poll acknowledges it — and appends each record to its
// OWN journal before applying it to its fleet (the same
// journalize-before-apply discipline the primary uses), so a replica is a
// crash-restartable node at every instant. Promotion is explicit
// (POST /v1/repl/promote) and bumps the cursor epoch; a primary that
// observes a higher epoch fences itself and refuses writes from then on,
// so a network that heals after a failover cannot yield two acking
// primaries.
//
// What is and is not guaranteed (see DESIGN.md §9): acknowledged writes
// that reached the replica's durable journal survive promotion; writes
// acknowledged by the old primary but not yet replicated are LOST on
// promote — replication is asynchronous, and the lag gauges exist
// precisely so operators can bound that window.
package repl

import (
	"fmt"
	"sync"
)

// Role is a node's replication role.
type Role int

const (
	// RolePrimary accepts writes and serves the stream. The zero value, so
	// a zero Config keeps the pre-replication single-node behavior.
	RolePrimary Role = iota
	// RoleReplica pulls the stream, serves reads, and rejects writes.
	RoleReplica
)

// ParseRole maps the -role flag onto a Role.
func ParseRole(s string) (Role, error) {
	switch s {
	case "primary", "":
		return RolePrimary, nil
	case "replica":
		return RoleReplica, nil
	}
	return 0, fmt.Errorf("repl: unknown role %q (want primary or replica)", s)
}

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Node is the role/epoch state machine of one process. Epochs are the
// fencing token: every promotion bumps the epoch, every stream request and
// response carries it, and a primary that observes a higher epoch than its
// own fences itself — it keeps serving reads but can never ack another
// write, even if the network partition that caused the failover heals.
type Node struct {
	mu     sync.Mutex
	role   Role
	epoch  uint64
	fenced bool
}

// NewNode builds a node at the given role and epoch (0 means epoch 1, the
// genesis epoch).
func NewNode(role Role, epoch uint64) *Node {
	if epoch == 0 {
		epoch = 1
	}
	return &Node{role: role, epoch: epoch}
}

// RestoreNode rebuilds a node from persisted state. fenced matters only
// for a primary: a demoted primary that restarts must come back fenced,
// or the restart would quietly un-demote it.
func RestoreNode(role Role, epoch uint64, fenced bool) *Node {
	n := NewNode(role, epoch)
	n.fenced = fenced && role == RolePrimary
	return n
}

// Role reports the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch reports the highest epoch the node has observed.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Fenced reports whether the node is a demoted primary: still serving
// reads, permanently refusing writes.
func (n *Node) Fenced() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fenced
}

// CanAcceptWrites reports whether the node may acknowledge mutations: it
// is the primary and has not been fenced by a newer epoch.
func (n *Node) CanAcceptWrites() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RolePrimary && !n.fenced
}

// Promote makes the node the primary of a new epoch and returns that
// epoch. Idempotent on an unfenced primary (no epoch bump — it already
// owns the current one). A fenced primary or a replica starts a fresh
// epoch, which is what fences the old primary when the streams reconnect.
func (n *Node) Promote() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RolePrimary && !n.fenced {
		return n.epoch
	}
	n.role = RolePrimary
	n.epoch++
	n.fenced = false
	return n.epoch
}

// PromoteTo makes the node the unfenced primary of exactly epoch e — the
// election-win path. The winner already owns e: it adopted e via
// ObserveEpoch when it cast its self-vote, and every granting voter
// adopted e too, so no other candidate can collect a majority for it.
// Returns false (and changes nothing) when the node has observed an epoch
// beyond e — a newer candidacy or primary overtook this one mid-campaign,
// and promoting under a stale epoch would be split brain.
func (n *Node) PromoteTo(e uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e < n.epoch {
		return false
	}
	n.role = RolePrimary
	n.epoch = e
	n.fenced = false
	return true
}

// ObserveEpoch folds in an epoch seen on the wire. Observing a higher
// epoch adopts it; if the node is an unfenced primary, that observation
// fences it (someone was promoted past us). Returns true when this call
// changed the node's state (epoch adopted and/or fence raised) — callers
// persist the node state when it does.
func (n *Node) ObserveEpoch(e uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e <= n.epoch {
		return false
	}
	n.epoch = e
	if n.role == RolePrimary && !n.fenced {
		n.fenced = true
	}
	return true
}
