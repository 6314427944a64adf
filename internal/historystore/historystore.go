// Package historystore implements the per-database customer activity
// history table sys.pause_resume_history from Section 5 of the ProRP paper.
//
// The table has two columns: time_snapshot (epoch seconds, unique, clustered
// B-tree index) and event_type (1 = start of customer activity, 0 = end of
// activity). The stored procedures of the paper map to methods:
//
//	Algorithm 2  sys.InsertHistory       -> (*Store).Insert
//	Algorithm 3  sys.DeleteOldHistory    -> (*Store).DeleteOld
//	Algorithm 4's range MIN/MAX query    -> (*Store).FirstLastLogin
//	Algorithm 4's look-back scan         -> (*Store).SeekLogin
//
// The history travels with the database when it moves between nodes (the
// durability principle of Section 3.3); here that simply means the Store is
// owned by the database object, not by any node.
package historystore

import (
	"fmt"

	"prorp/internal/btree"
)

// Event types stored in the event_type column.
const (
	EventEnd   byte = 0 // end of customer activity
	EventStart byte = 1 // start of customer activity (a login)
)

// tupleBytes is the storage footprint of one history tuple: two 64-bit
// integers per Section 9.3 ("Each tuple consists of two integer values of
// size 64 bits").
const tupleBytes = 16

// SecondsPerDay converts the history-length knob h (days) to seconds.
const SecondsPerDay = 24 * 60 * 60

// Store is the history table of one database.
type Store struct {
	idx *btree.Tree
}

// New returns an empty history store.
func New() *Store {
	return &Store{idx: btree.New()}
}

// Insert records an activity event at time t (epoch seconds). Following
// Algorithm 2, a tuple with an existing time_snapshot is silently skipped;
// the return value reports whether a tuple was inserted.
func (s *Store) Insert(t int64, eventType byte) bool {
	if eventType != EventStart && eventType != EventEnd {
		panic(fmt.Sprintf("historystore: invalid event type %d", eventType))
	}
	return s.idx.Insert(t, eventType)
}

// Len reports the number of tuples (n in the paper's complexity analysis).
func (s *Store) Len() int { return s.idx.Len() }

// SizeBytes reports the storage footprint in bytes (Figure 10(b)).
func (s *Store) SizeBytes() int { return s.idx.Len() * tupleBytes }

// MinTimestamp returns the oldest tuple's timestamp. The oldest tuple
// records the database lifespan: Algorithm 3 deliberately keeps it forever.
func (s *Store) MinTimestamp() (int64, bool) { return s.idx.Min() }

// MaxTimestamp returns the newest tuple's timestamp.
func (s *Store) MaxTimestamp() (int64, bool) { return s.idx.Max() }

// DeleteOld implements Algorithm 3: it trims history older than h days
// before now, keeping the single oldest tuple as the lifespan marker, and
// reports whether the database is "old", i.e. existed before the start of
// recent history and therefore has enough history for a reliable
// prediction. removed is the number of tuples deleted.
func (s *Store) DeleteOld(h int, now int64) (old bool, removed int) {
	historyStart := now - int64(h)*SecondsPerDay
	minTS, ok := s.idx.Min()
	if !ok {
		return false, 0
	}
	if minTS >= historyStart {
		return false, 0
	}
	// @minTimestamp < time_snapshot AND time_snapshot < @historyStart:
	// both bounds exclusive, so the oldest tuple survives.
	removed = s.idx.DeleteRange(minTS+1, historyStart-1)
	return true, removed
}

// FirstLastLogin is the range aggregation of Algorithm 4 lines 19-24:
// SELECT MIN(time_snapshot), MAX(time_snapshot) over login events
// (event_type = 1) within [lo, hi]. ok is false when the window holds no
// login.
func (s *Store) FirstLastLogin(lo, hi int64) (first, last int64, ok bool) {
	s.idx.Ascend(lo, hi, func(k int64, v byte) bool {
		if v != EventStart {
			return true
		}
		if !ok {
			first = k
			ok = true
		}
		last = k
		return true
	})
	return first, last, ok
}

// LoginCursor walks the login events (event_type = 1) of a store in
// timestamp order: the resumable form of FirstLastLogin's range scan.
// Algorithm 4 holds one per look-back day and slides it along with the
// window instead of re-running the range query per window. Any Insert or
// DeleteOld on the store invalidates it.
type LoginCursor struct {
	c btree.Cursor
}

// SeekLogin returns a cursor on the first login at or after t.
func (s *Store) SeekLogin(t int64) LoginCursor {
	c := LoginCursor{c: s.idx.SeekGE(t)}
	c.skipLogouts()
	return c
}

func (c *LoginCursor) skipLogouts() {
	for c.c.Valid() && c.c.Val() != EventStart {
		c.c.Next()
	}
}

// Time returns the timestamp of the login under the cursor; ok is false
// once the cursor has passed the last login.
func (c LoginCursor) Time() (t int64, ok bool) {
	if !c.c.Valid() {
		return 0, false
	}
	return c.c.Key(), true
}

// Next advances to the following login.
func (c *LoginCursor) Next() {
	c.c.Next()
	c.skipLogouts()
}

// HasActivity reports whether any event (start or end) falls in [lo, hi].
func (s *Store) HasActivity(lo, hi int64) bool {
	found := false
	s.idx.Ascend(lo, hi, func(int64, byte) bool {
		found = true
		return false
	})
	return found
}

// Event is one tuple of the history table in human-readable order.
type Event struct {
	Time int64
	Type byte
}

// Scan returns all tuples in [lo, hi] in timestamp order. It backs the
// customer-facing materialized view mentioned in Section 5 and the
// telemetry export.
func (s *Store) Scan(lo, hi int64) []Event {
	var out []Event
	s.idx.Ascend(lo, hi, func(k int64, v byte) bool {
		out = append(out, Event{Time: k, Type: v})
		return true
	})
	return out
}

// Clone deep-copies the store. The simulation uses it to snapshot history
// when a database moves across nodes, mirroring the paper's durability
// requirement.
func (s *Store) Clone() *Store {
	c := New()
	s.idx.Ascend(-1<<63, 1<<63-1, func(k int64, v byte) bool {
		c.idx.Insert(k, v)
		return true
	})
	return c
}
