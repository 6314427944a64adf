// Package repl is the primary/replica replication runtime: it ships the
// event journal (internal/wal) over HTTP from a primary to its replicas,
// and owns the role/epoch state that makes failover safe.
//
// The primary's WAL already is the acknowledged event stream, so
// replication is shipping it: a follower long-polls
// GET /v1/repl/stream?after=<segment:offset>, journals each batch before
// applying it (so a replica is crash-restartable at every instant), and its
// next poll is the acknowledgment. Epochs are the fencing token, carried on
// every stream exchange; who holds which epoch — elections, fencing,
// promotion — is decided by one state machine, Step (election.go), run by
// one Driver per node (driver.go). Acknowledged writes that reached a
// replica's journal survive failover; with asynchronous replication, writes
// not yet replicated are lost, and the lag gauges bound that window
// (DESIGN.md §9, §11).
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

// Node is the installed role/epoch of one process: what the hot paths read
// (every write asks CanAcceptWrites). Epochs are the fencing token: every
// promotion bumps the epoch, every stream request and response carries it,
// and a primary that observes a higher epoch than its own fences itself —
// it keeps serving reads but can never ack another write, even if the
// network partition that caused the failover heals. Only the Driver
// changes a Node, after the change is durable.
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

// install publishes a state the driver has made durable: the only writer.
func (n *Node) install(s State) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.role, n.epoch, n.fenced = s.Role, s.Epoch, s.Fenced
}
