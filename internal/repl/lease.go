package repl

import (
	"sync"
	"sync/atomic"
	"time"

	"prorp/internal/faults"
)

// Lease is a follower's view of primary liveness: every authoritative
// contact with a current-epoch primary (a stream poll answered, an
// announce received) renews it for TTL, and a follower whose lease lapses
// is licensed to stand for election. The lease is time-based on the
// FOLLOWER's clock — the primary grants a relative TTL over the stream
// headers rather than an absolute deadline, so clock skew between nodes
// cannot shorten or stretch the grant.
//
// Epoch boundaries: a renewal is tagged with the epoch it came from, and a
// renewal from an epoch below the highest one seen is ignored — a stale
// primary on the wrong side of a healed partition cannot extend its own
// reign by answering polls.
type Lease struct {
	clock faults.Clock
	ttl   time.Duration

	mu       sync.Mutex
	epoch    uint64
	until    time.Time
	renewals atomic.Uint64
}

// NewLease builds a lease that starts expired: the holder has never heard
// from a primary. Hosts that persisted a lease call RestoreUntil.
func NewLease(clock faults.Clock, ttl time.Duration) *Lease {
	if clock == nil {
		clock = faults.WallClock{}
	}
	return &Lease{clock: clock, ttl: ttl}
}

// TTL reports the configured grant duration.
func (l *Lease) TTL() time.Duration { return l.ttl }

// Renew extends the lease to now+ttl on contact from a primary at epoch e.
// ttl <= 0 uses the configured TTL (the primary sent no override). Contact
// from an epoch below the highest seen is ignored; a higher epoch takes
// over the lease. Returns true when the lease was actually extended.
func (l *Lease) Renew(e uint64, ttl time.Duration) bool {
	if ttl <= 0 {
		ttl = l.ttl
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e < l.epoch {
		return false
	}
	l.epoch = e
	until := l.clock.Now().Add(ttl)
	if until.After(l.until) {
		l.until = until
	}
	l.renewals.Add(1)
	return true
}

// RestoreUntil rebuilds the lease from persisted state at boot, so a
// reboot inside an unexpired lease does not immediately campaign against
// a primary that was alive moments ago.
func (l *Lease) RestoreUntil(e uint64, until time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.epoch = e
	l.until = until
}

// Expired reports whether the lease has lapsed at time now.
func (l *Lease) Expired(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return now.After(l.until)
}

// Remaining reports how much lease is left at time now (negative when
// lapsed — by how much).
func (l *Lease) Remaining(now time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.until.Sub(now)
}

// Until reports the lease's current expiry instant, for persistence.
func (l *Lease) Until() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.until
}

// Renewals counts successful renewals, for /metrics.
func (l *Lease) Renewals() uint64 { return l.renewals.Load() }
