package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"prorp"
	"prorp/internal/breaker"
	"prorp/internal/faults"
	"prorp/internal/obs"
	"prorp/internal/repl"
	"prorp/internal/wal"
)

// Replication wiring of the serving runtime: the primary's stream and
// snapshot endpoints, the replica's apply/resync/persist hooks, the
// repl-state file, and the write gate. The protocol itself (cursors,
// epochs, the follower loop) lives in internal/repl; everything here is
// the server gluing that protocol onto its WAL, fleet, and wake timers.

// errNotPrimary refuses a mutation on a node that cannot acknowledge it:
// a replica, or a primary fenced by a newer epoch. Mapped to HTTP 503 —
// the request is fine, this node just isn't the place to send it.
var errNotPrimary = errors.New("not the primary: this node does not accept writes")

// rejectNonPrimary 503s a write on a non-primary, with Retry-After so
// well-behaved clients back off while the load balancer re-routes to the
// primary. Returns true when the request was rejected.
func (s *Server) rejectNonPrimary(w http.ResponseWriter) bool {
	if s.node.CanAcceptWrites() {
		return false
	}
	s.repl.writesRejected.Add(1)
	s.writeErr(w, errNotPrimary)
	return true
}

// replCounters are the stream-side counters, surfaced on /metrics.
type replCounters struct {
	writesRejected   atomic.Uint64 // mutations 503'd on a non-primary
	streamBatches    atomic.Uint64 // 200 stream responses served (primary)
	streamRecords    atomic.Uint64 // records shipped (primary)
	snapshotsServed  atomic.Uint64 // resync snapshots served (primary)
	streamLag        atomic.Int64  // records behind at the last stream poll
	streamParked     atomic.Int64  // stream polls held open right now (primary)
	applied          atomic.Uint64 // streamed records applied (replica)
	applySkipped     atomic.Uint64 // streamed records already applied (replica)
	quorumTimeouts   atomic.Uint64 // quorum-acked writes refused on timeout
	syncPersists     atomic.Uint64 // repl-state rewrites: temp file, fsync, rename
	progressPersists atomic.Uint64 // repl-state progress lines overwritten in place
	votesGranted     atomic.Uint64 // election votes this node granted
	votesRefused     atomic.Uint64 // election votes this node refused
}

// Node exposes the replication state machine, for host wiring and tests.
func (s *Server) Node() *repl.Node { return s.node }

// followerRef is the live follower, nil when this node is not following
// anyone. Atomic because failover creates and drops followers at runtime.
func (s *Server) followerRef() *repl.Follower { return s.followerP.Load() }

// ReplicationLag reports how far behind the primary this node is: records
// not yet applied, and the age in seconds of the newest applied record.
// A primary reports zero on both.
func (s *Server) ReplicationLag() (records int64, seconds float64) {
	f := s.followerRef()
	if f == nil {
		return 0, 0
	}
	return f.LagRecords(), f.LagSeconds(s.now())
}

// ----- repl-state file ----------------------------------------------------

// The repl-state file persists the node's epoch, fencing, vote, stream
// cursor, lease expiry, and cursor lineage next to the journal. Line one,
// "PRR1 <epoch> <fenced> <cursor> <leaseUnixMilli> <lineage> <vote>", is
// only ever written whole — temp file, fsync, rename — at the sync events:
// every election state change (a fence or vote that evaporates in a crash is
// split brain), and resync. The vote is the candidate this node voted for at
// its epoch, "-" for none; a line without it (an earlier build's) has none.
// Cursor-only progress, one per applied batch and so inside every
// quorum-acked write, overwrites the fixed-width progress line after it in
// place, unsynced: "<seg>:<off> <leaseUnixMilli> <lineage> <sum>",
// zero-padded, the sum a CRC-32C of the rest. It survives a process kill
// like the rename it replaces; a machine crash may leave it old, torn or
// absent, and then the node boots with line one's cursor — older, never
// newer, and never a different epoch or fence. The lease field makes reboots
// respect an unexpired lease instead of instantly campaigning; the lineage
// field is the reign epoch of the journal the cursor indexes, so a rebooted
// node votes from its true (lineage, cursor) position.
const replStateFile = "repl-state"

func replStatePath(walDir string) string {
	if walDir == "" {
		return ""
	}
	return filepath.Join(walDir, replStateFile)
}

// replHead is the part of repl-state line one only the election driver
// changes; a progress persist never does.
type replHead struct {
	epoch  uint64
	fenced bool
	vote   string
}

const (
	progressBodyLen = 20 + 1 + 20 + 1 + 20 + 1 + 20       // "<seg>:<off> <lease> <lineage>"
	progressLineLen = progressBodyLen + 1 + 8 + len("\n") // + " <sum>\n"
)

func formatProgress(c wal.Cursor, leaseMs int64, lineage uint64) []byte {
	body := fmt.Sprintf("%020d:%020d %020d %020d", c.Seg, c.Off, leaseMs, lineage)
	return []byte(body + " " + repl.BodySum([]byte(body)) + "\n")
}

// parseProgress reads a progress line; ok is false for anything but a whole
// line whose checksum holds.
func parseProgress(b []byte) (c wal.Cursor, leaseMs int64, lineage uint64, ok bool) {
	if len(b) < progressLineLen || b[progressBodyLen] != ' ' || b[progressLineLen-1] != '\n' {
		return wal.Cursor{}, 0, 0, false
	}
	body := b[:progressBodyLen]
	if repl.BodySum(body) != string(b[progressBodyLen+1:progressLineLen-1]) {
		return wal.Cursor{}, 0, 0, false
	}
	n, _ := fmt.Sscanf(string(body), "%d:%d %d %d", &c.Seg, &c.Off, &leaseMs, &lineage)
	return c, leaseMs, lineage, n == 4
}

// loadReplState reads the persisted node state. A missing file is a fresh
// node; a malformed line one refuses the boot — guessing at fencing state is
// how split brain happens. The progress line is adopted (cursor, lease,
// lineage) only when it is whole and not behind line one's cursor; anything
// else is ignored.
func loadReplState(fsys faults.FS, path string) (head replHead, c wal.Cursor, leaseMs int64, lineage uint64, err error) {
	if path == "" {
		return replHead{}, wal.Cursor{}, 0, 0, nil
	}
	f, err := fsys.Open(path)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return replHead{}, wal.Cursor{}, 0, 0, nil
		}
		return replHead{}, wal.Cursor{}, 0, 0, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return replHead{}, wal.Cursor{}, 0, 0, err
	}
	var fencedInt int
	var curStr string
	n, serr := fmt.Sscanf(string(data), "PRR1 %d %d %s %d %d %s", &head.epoch, &fencedInt, &curStr, &leaseMs, &lineage, &head.vote)
	if n < 5 {
		return replHead{}, wal.Cursor{}, 0, 0, fmt.Errorf("malformed repl state %q: %v", data, serr)
	}
	if c, err = wal.ParseCursor(curStr); err != nil {
		return replHead{}, wal.Cursor{}, 0, 0, fmt.Errorf("malformed repl state cursor: %w", err)
	}
	head.fenced = fencedInt != 0
	if head.vote == "-" {
		head.vote = ""
	}
	if _, rest, found := bytes.Cut(data, []byte("\n")); found {
		if pc, pLease, pLineage, ok := parseProgress(rest); ok && !pc.Before(c) {
			c, leaseMs, lineage = pc, pLease, pLineage
		}
	}
	return head, c, leaseMs, lineage, nil
}

// persistReplState is the follower's Persist hook: it records the stream
// cursor under the durable head. doSync rewrites the file (see
// replStateFile); without it only the progress line is overwritten —
// unless there is no file open to overwrite, which rewrites too.
func (s *Server) persistReplState(c wal.Cursor, doSync bool) error {
	if s.cfg.WALDir == "" {
		return nil
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	// The lineage rides along with every persist: a follower that learned
	// its stream's reign from the poll headers makes it durable here, so a
	// reboot still knows which journal its cursor indexes.
	if f := s.followerRef(); f != nil {
		if r := f.SourceReign(); r > 0 {
			s.replLineage = r
		}
	}
	return s.writeReplStateLocked(s.replHead, c, s.replLineage, doSync)
}

// persistElection is the election driver's Persist hook: line one takes the
// state's epoch and fence, rewritten and synced before the driver installs
// the state. An unfenced primary's journal is its own reign.
func (s *Server) persistElection(st repl.State) error {
	if s.cfg.WALDir == "" {
		return nil
	}
	c := s.loadCursor()
	s.replMu.Lock()
	defer s.replMu.Unlock()
	lineage := s.replLineage
	if st.Leads() {
		lineage = st.Epoch
	}
	return s.writeReplStateLocked(replHead{epoch: st.Epoch, fenced: st.Fenced, vote: st.Vote}, c, lineage, true)
}

// writeReplStateLocked writes the repl-state file; caller holds replMu.
func (s *Server) writeReplStateLocked(head replHead, c wal.Cursor, lineage uint64, doSync bool) error {
	var leaseMs int64
	if s.lease != nil {
		if u := s.lease.Until(); !u.IsZero() {
			leaseMs = u.UnixMilli()
		}
	}
	if !doSync && s.replFile != nil && head == s.replHead {
		_, err := s.replFile.Seek(s.replProgressAt, io.SeekStart)
		if err == nil {
			_, err = s.replFile.Write(formatProgress(c, leaseMs, lineage))
		}
		if err != nil {
			s.closeReplStateLocked() // whatever the file holds now, the next persist replaces it
			return err
		}
		s.repl.progressPersists.Add(1)
		s.replCursor = c
		return nil
	}

	fenced, vote := 0, head.vote
	if head.fenced {
		fenced = 1
	}
	if vote == "" {
		vote = "-"
	}
	path := replStatePath(s.cfg.WALDir)
	line := fmt.Sprintf("PRR1 %d %d %s %d %d %s\n", head.epoch, fenced, c, leaseMs, lineage, vote)
	if _, err := faults.WriteFileAtomic(s.cfg.FS, path, []byte(line), ""); err != nil {
		return err
	}
	s.repl.syncPersists.Add(1)
	s.replCursor, s.replHead, s.replLineage = c, head, lineage
	// Progress goes to the file just renamed into place, not the one it
	// replaced. A failed open costs the next progress persist a rewrite; a
	// server shutting down keeps no handle.
	s.closeReplStateLocked()
	select {
	case <-s.stop:
	default:
		if f, err := s.cfg.FS.OpenFile(path, os.O_WRONLY, 0); err == nil {
			s.replFile, s.replProgressAt = f, int64(len(line))
		}
	}
	return nil
}

// closeReplStateLocked drops the handle progress persists write through.
// Caller holds replMu.
func (s *Server) closeReplStateLocked() {
	if s.replFile != nil {
		s.replFile.Close()
		s.replFile = nil
	}
}

// loadCursor is the node's current stream position: the live follower's
// cursor on a replica, the last persisted one elsewhere.
func (s *Server) loadCursor() wal.Cursor {
	if f := s.followerRef(); f != nil {
		return f.Cursor()
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.replCursor
}

// ----- replica hooks ------------------------------------------------------

// replDoer is the HTTP client for the replication control and data plane.
// Every path through it — follower poll, snapshot resync, election
// solicitation, peer announce — shares one per-host breaker group, so a
// hung peer costs its first callers the transport timeout and everyone
// after an immediate refusal until the cooldown probe finds it healthy.
func (s *Server) replDoer() faults.Doer {
	inner := faults.Doer(defaultReplClient)
	if s.cfg.ReplDoer != nil {
		inner = s.cfg.ReplDoer
	}
	if s.replBreakers != nil {
		return breaker.Wrap(inner, s.replBreakers)
	}
	return inner
}

var defaultReplClient = &http.Client{Timeout: 30 * time.Second}

// applyStreamed is the follower's Apply hook: journalize-before-apply,
// exactly like a live handler, under the shared side of walGate — the whole
// batch in one journal write and one fsync, then record by record into the
// fleet. A journal error applies nothing; an apply error stops there. Either
// way the cursor stays short of what was not applied and it is re-streamed,
// leaving a duplicate journal entry that replay skips or tolerates like any
// boundary double-apply (see applyRecord).
func (s *Server) applyStreamed(recs []wal.Record) (applied int, err error) {
	ctx, span := s.tracer.Start(context.Background(), "repl.apply_batch")
	defer span.End()
	s.walGate.RLock()
	defer s.walGate.RUnlock()
	_, jspan := s.tracer.Start(ctx, "wal.append")
	_, err = s.journalizeBatch(recs)
	jspan.End()
	if err != nil {
		return 0, err
	}
	s.batchHist.Observe(float64(len(recs)))
	_, aspan := s.tracer.Start(ctx, "fleet.apply")
	defer aspan.End()
	for _, rec := range recs {
		skipped, err := s.applyRecord(rec)
		switch {
		case err != nil:
			return applied, err
		case skipped:
			s.repl.applySkipped.Add(1)
		default:
			s.repl.applied.Add(1)
		}
		applied++
	}
	return applied, nil
}

// maxSnapshotFetch caps a resync download; a fleet archive is a few
// hundred bytes per database, so 1 GiB is far past any real fleet.
const maxSnapshotFetch = 1 << 30

// replResync is the follower's Resync hook, called when the primary
// reports the cursor unusable (compacted away, or ahead of its lineage):
// fetch the primary's snapshot, swap the local fleet to it, persist the
// adopted state locally, and return the snapshot's journal boundary as
// the cursor to stream from, plus the reign epoch of the journal it
// indexes (from the snapshot response's X-Repl-Reign header).
func (s *Server) replResync(primary string, primaryEpoch uint64) (wal.Cursor, uint64, error) {
	if s.store == nil {
		// Without a local snapshot a crash after the swap would replay the
		// pre-resync journal against a post-resync cursor and diverge.
		return wal.Cursor{}, 0, errors.New("snapshot resync requires SnapshotPath on the replica")
	}
	req, err := http.NewRequest(http.MethodGet, primary+"/v1/repl/snapshot", nil)
	if err != nil {
		return wal.Cursor{}, 0, err
	}
	req.Header.Set(repl.HeaderEpoch, strconv.FormatUint(s.node.Epoch(), 10))
	resp, err := s.replDoer().Do(req)
	if err != nil {
		return wal.Cursor{}, 0, fmt.Errorf("fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return wal.Cursor{}, 0, fmt.Errorf("snapshot fetch: primary said %d", resp.StatusCode)
	}
	reign, _ := strconv.ParseUint(resp.Header.Get(repl.HeaderReign), 10, 64)
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotFetch))
	if err != nil {
		return wal.Cursor{}, 0, fmt.Errorf("reading snapshot: %w", err)
	}
	// The snapshot checksum is the transport integrity check: a snapshot
	// bit-flipped or cut in flight fails here and the resync is retried.
	payload, boundary, err := openSnapshot(data)
	if err != nil {
		return wal.Cursor{}, 0, fmt.Errorf("verifying snapshot: %w", err)
	}
	if boundary == 0 {
		return wal.Cursor{}, 0, errors.New("snapshot carries no journal boundary: primary has no WAL to stream")
	}
	fleet, _, err := prorp.RestoreShardedFleet(s.cfg.Options, s.cfg.Shards, bytes.NewReader(payload))
	if err != nil {
		return wal.Cursor{}, 0, fmt.Errorf("decoding snapshot: %w", err)
	}
	s.swapFleet(fleet)
	// Make the adoption locally durable before the cursor moves: the local
	// snapshot re-serializes the adopted state and compacts the local
	// journal below it, so a crash right now reboots into the new lineage.
	if _, err := s.writeSnapshot(); err != nil {
		return wal.Cursor{}, 0, fmt.Errorf("persisting resynced state: %w", err)
	}
	cur := wal.Cursor{Seg: boundary, Off: wal.SegmentDataStart}
	s.logf("repl resync: adopted primary snapshot (%d databases, primary epoch %d, reign %d), streaming from %s",
		fleet.Size(), primaryEpoch, reign, cur)
	return cur, reign, nil
}

// swapFleet replaces the serving runtime after a snapshot resync: swap
// the pointer, attach the decision histograms to the new runtime, and
// rebuild the wake timers from the new fleet's pending set.
func (s *Server) swapFleet(fleet *prorp.ShardedFleet) {
	s.fleetP.Store(fleet)
	fleet.InstrumentObs(s.reg)
	s.wakes.reset()
	for _, w := range fleet.PendingWakes() {
		s.wakes.schedule(w.ID, w.WakeAt)
	}
}

// ----- primary endpoints --------------------------------------------------

const (
	defaultStreamBatch = 256 << 10
	maxStreamBatch     = 4 << 20
)

// observePeerEpoch folds a peer's epoch header into the node. This is how
// fencing propagates: the first stream poll a new-epoch follower sends to
// the old primary demotes it, durably, before the response goes out. Only
// a higher epoch enters the election driver. Returns the peer's epoch, 0
// when it sent none.
func (s *Server) observePeerEpoch(r *http.Request) uint64 {
	e, err := strconv.ParseUint(r.Header.Get(repl.HeaderEpoch), 10, 64)
	if err != nil || e == 0 {
		return 0
	}
	if e > s.node.Epoch() {
		if err := s.elect.Adopt(r.Context(), e); err != nil {
			s.logf("adopting observed epoch %d: %v", e, err)
		}
	}
	return e
}

// notePeerID watches for two different remote hosts polling under the
// same X-Repl-Node id — misconfigured replicas sharing a node id collapse
// into ONE entry in the quorum coverage map, silently weakening K. The
// config-time check in New catches the empty default; this catches two
// nodes explicitly configured with the same id, which only the primary
// can see. Log-only: refusing the poll would turn a labeling mistake into
// an availability outage.
func (s *Server) notePeerID(id, remoteAddr string) {
	if id == "" || s.coverage == nil {
		return
	}
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil || host == "" {
		return // in-process transports carry no usable remote address
	}
	s.peerAddrMu.Lock()
	defer s.peerAddrMu.Unlock()
	if s.peerAddrs == nil {
		s.peerAddrs = make(map[string]string)
	}
	if prev, ok := s.peerAddrs[id]; ok && prev != host {
		s.logf("repl quorum: node id %q polled from %s and %s — duplicate ids collapse into one quorum peer; give each replica a distinct -repl-node", id, prev, host)
	}
	s.peerAddrs[id] = host
}

// maxStreamPark bounds how long a caught-up stream poll is held open. It is
// a keep-alive, not a cadence: records wake the poll the moment they are
// shippable, and the follower's client times out far later (30 s).
const maxStreamPark = time.Second

// streamPark is the longest one caught-up poll is held: short enough that
// the lease heartbeat riding the answer reaches the follower three times
// per TTL.
func (s *Server) streamPark() time.Duration {
	if ttl := s.cfg.LeaseTTL; ttl > 0 && ttl/3 < maxStreamPark {
		return ttl / 3
	}
	return maxStreamPark
}

// parkDeadline returns the channel whose close ends the current park: one
// streamPark after the first poll that asked for it, on the server's clock —
// the clock the leases it keeps alive run on. Polls that park inside that
// span share it (a poll waits at most streamPark, and each follower gets a
// 204, hence a heartbeat, at least once per span), so the deadline costs
// one sleeping goroutine however many polls come and go.
func (s *Server) parkDeadline() <-chan struct{} {
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	if s.parkTick == nil {
		tick := make(chan struct{})
		s.parkTick = tick
		go func() {
			s.clock.Sleep(s.streamPark())
			s.parkMu.Lock()
			s.parkTick = nil
			s.parkMu.Unlock()
			close(tick)
		}()
	}
	return s.parkTick
}

// handleReplStream serves one batch of WAL frames after a cursor, holding
// the request open while there is none: a caught-up poll parks on the
// journal's shippable end and is answered the moment a record can ship, or
// with a 204 at the park deadline. Only records durable per the fsync
// policy are shipped — the stream can never run ahead of what a crash would
// preserve — and the poisoned tail is excluded for the same reason appends
// past it are refused.
//
// Everything the answer says about this node — epoch, lease grant, role —
// is read AFTER the park: a primary fenced while a poll was parked answers
// with the new epoch and no lease, so the follower times out and elects.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	peerEpoch := s.observePeerEpoch(r)
	stampEpoch := func() {
		w.Header().Set(repl.HeaderEpoch, strconv.FormatUint(s.node.Epoch(), 10))
	}
	// unavailable answers for a node that is not serving the stream (a
	// replica — replicas don't relay — or a node shutting down): the
	// follower counts it a failed poll and backs off.
	unavailable := func() {
		stampEpoch()
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if s.node.Role() != repl.RolePrimary || s.wal == nil {
		unavailable()
		return
	}
	s.notePeerID(r.Header.Get(repl.HeaderNode), r.RemoteAddr)
	after, err := wal.ParseCursor(r.URL.Query().Get("after"))
	if err != nil {
		stampEpoch()
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	maxBytes := defaultStreamBatch
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			stampEpoch()
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad max %q", v)})
			return
		}
		maxBytes = min(n, maxStreamBatch)
	}

	var (
		data        []byte
		start, next wal.Cursor
		deadline    <-chan struct{} // taken at the first park, kept across wake-ups
	)
	for first, expired := true, false; !expired; first = false {
		select {
		case <-s.stop:
			unavailable() // a closed journal has no tail to wait on
			return
		default:
		}
		// Taken before the read, so an append that lands between the read
		// and the wait below has already closed the channel in hand.
		tail := s.wal.TailChanged()
		data, start, next, err = s.wal.ReadAfter(after, maxBytes)
		if first && s.coverage != nil && !errors.Is(err, wal.ErrCursorAhead) {
			// A poll at ?after=<cur> means everything before cur is durably
			// journaled on that follower: fold it into quorum coverage — at
			// once, before any park; this is the ack writers are waiting on.
			// Skip the foreign-lineage case — a cursor from another
			// primary's stream space compares meaninglessly against ours and
			// must not satisfy a quorum.
			s.coverage.Observe(r.Header.Get(repl.HeaderNode), after)
		}
		// Answer when there is anything to say: a verdict, a batch, a cursor
		// the follower should move to (ReadAfter hopped it out of a sealed
		// segment), or an epoch it has not heard of.
		if err != nil || len(data) > 0 || start != after ||
			(peerEpoch > 0 && peerEpoch < s.node.Epoch()) {
			break
		}
		if deadline == nil {
			deadline = s.parkDeadline()
		}
		gone := false
		s.repl.streamParked.Add(1)
		select {
		case <-tail:
		case <-deadline:
			expired = true
		case <-r.Context().Done():
			gone = true // the follower hung up, or the listener is shutting down
		case <-s.stop:
			gone = true
		}
		s.repl.streamParked.Add(-1)
		if gone {
			unavailable() // nobody is owed a lease
			return
		}
	}

	stampEpoch()
	h := w.Header()
	// The lease heartbeat rides the stream headers — but ONLY from the
	// unfenced primary. A fenced ex-primary still serves the stream (its
	// acknowledged tail is exactly what a catching-up follower of the new
	// epoch needs to drain), yet it must not extend anyone's lease: a
	// follower still pointed at it has to time out and elect.
	if s.cfg.LeaseTTL > 0 && s.node.CanAcceptWrites() {
		h.Set(repl.HeaderLeaseTTL, strconv.FormatInt(s.cfg.LeaseTTL.Milliseconds(), 10))
	}
	// The reign tags the journal being served — set even when fenced: a
	// fenced ex-primary's epoch has moved on, but the journal it serves is
	// still the old reign's cursor space, and that is what the follower's
	// cursor will index.
	if lin := s.lineage(); lin > 0 {
		h.Set(repl.HeaderReign, strconv.FormatUint(lin, 10))
	}
	switch {
	case errors.Is(err, wal.ErrCursorCompacted):
		w.WriteHeader(http.StatusGone) // cursor below retained history: resync
		return
	case errors.Is(err, wal.ErrCursorAhead):
		w.WriteHeader(http.StatusRequestedRangeNotSatisfiable) // foreign lineage: resync
		return
	case err != nil:
		s.logf("repl stream at %s: %v", after, err)
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	lag := s.wal.TailGapRecords(next)
	s.repl.streamLag.Store(lag)
	if len(data) == 0 {
		if start != after {
			h.Set(repl.HeaderNextCursor, start.String())
		}
		w.WriteHeader(http.StatusNoContent) // caught up
		return
	}
	s.repl.streamBatches.Add(1)
	s.repl.streamRecords.Add(uint64(int64(len(data)) / wal.FrameSize))
	h.Set(repl.HeaderCursor, start.String())
	h.Set(repl.HeaderNextCursor, next.String())
	h.Set(repl.HeaderLagRecords, strconv.FormatInt(lag, 10))
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// handleReplSnapshot serves a snapshot frame of the current fleet state
// for follower resync. The journal rotates first, exactly like a
// persisted snapshot, so the recorded boundary provably covers every
// event in the archive.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	s.observePeerEpoch(r)
	w.Header().Set(repl.HeaderEpoch, strconv.FormatUint(s.node.Epoch(), 10))
	if s.node.Role() != repl.RolePrimary || s.wal == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	if lin := s.lineage(); lin > 0 {
		w.Header().Set(repl.HeaderReign, strconv.FormatUint(lin, 10))
	}
	var payload bytes.Buffer
	payload.Write(make([]byte, walSeqSize))
	s.walGate.Lock()
	boundary, err := s.wal.Rotate()
	if err == nil {
		_, err = s.Fleet().WriteTo(&payload)
	}
	s.walGate.Unlock()
	var snap []byte
	if err == nil {
		snap, err = sealSnapshot(payload.Bytes(), boundary)
	}
	if err != nil {
		s.logf("repl snapshot: %v", err)
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	s.repl.snapshotsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
	w.Write(snap)
}

// handleReplPromotion makes this node the primary of a new epoch (a no-op
// reporting the epoch on an unfenced primary). The old primary fences
// itself the moment the new epoch reaches it over the stream (or via
// POST /v1/repl/fence). Writes it acknowledged but had not replicated are
// lost — replication is asynchronous; the lag gauges bound that window.
func (s *Server) handleReplPromotion(w http.ResponseWriter, r *http.Request) {
	st, out, err := s.elect.Submit(r.Context(), repl.Input{Kind: repl.KindPromote})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"role": st.Role.String(), "epoch": st.Epoch, "promoted": out.Promote,
	})
}

// stopFollowing is the driver's StopFollowing hook, run before a promotion
// is persisted: stop and shed the follower, keeping its final position on
// record.
func (s *Server) stopFollowing() {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	if f := s.followerP.Load(); f != nil {
		f.Stop() // drain the in-flight batch, then no more pulls
		s.replMu.Lock()
		s.replCursor = f.Cursor()
		s.replMu.Unlock()
		s.followerP.Store(nil)
	}
}

// follow is the driver's Follow hook: this node leads (the wake loop may
// arm timers now), or it follows addr.
func (s *Server) follow(addr string) {
	if addr == s.cfg.SelfAddr {
		s.wakes.kick()
	} else {
		s.ensureFollowing(addr)
	}
}

// ensureFollowing points this node's stream loop at addr, creating the
// follower if none exists — the self-healing half of failover: a fenced
// ex-primary auto-demotes into a follower of the winner, no operator in
// the loop. A live follower is repointed, which forces a snapshot resync
// (journal offsets are per-lineage; resuming a cursor against a different
// primary's stream would double-apply).
func (s *Server) ensureFollowing(addr string) {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	if s.closing || s.node.CanAcceptWrites() {
		return
	}
	if f := s.followerP.Load(); f != nil {
		f.SetPrimary(addr)
		return
	}
	if s.wal == nil || s.store == nil {
		s.logf("cannot auto-follow %s: following requires WALDir and SnapshotPath", addr)
		return
	}
	// An ex-primary's journal is its own lineage; only the new primary's
	// snapshot is a safe starting point.
	f := s.newFollower(addr, wal.Cursor{}, true)
	s.followerP.Store(f)
	f.Start()
	s.logf("following %s (auto-demoted into a replica)", addr)
}

// newFollower builds the stream loop from primary at cursor.
func (s *Server) newFollower(primary string, cursor wal.Cursor, resyncFirst bool) *repl.Follower {
	return repl.NewFollower(repl.FollowerConfig{
		PrimaryURL:    primary,
		Doer:          s.replDoer(),
		Clock:         s.clock,
		PollInterval:  s.cfg.ReplPollInterval,
		MaxBatchBytes: s.cfg.ReplMaxBatchBytes,
		Node:          s.node,
		NodeID:        s.cfg.NodeID,
		Apply:         s.applyStreamed,
		Persist:       s.persistReplState,
		Adopt:         s.elect.Adopt,
		Resync:        s.replResync,
		ResyncOnStart: resyncFirst,
		Lease:         s.lease,
		Logf:          s.logf,
	}, cursor)
}

// votePosition is this node's (lineage, cursor) for votes: the follower's
// live cursor when following, under its stream's reign (the persisted
// lineage until the follower learns one — never reign 0 for a possibly
// non-zero cursor); the journal's durable end under this node's own reign
// when it is or last was the stream's source; the persisted pair otherwise.
func (s *Server) votePosition() repl.Position {
	if f := s.followerRef(); f != nil {
		r := f.SourceReign()
		if r == 0 {
			r = s.lineage()
		}
		return repl.Position{Lineage: r, Cursor: f.Cursor()}
	}
	if s.wal != nil && s.node.Role() == repl.RolePrimary {
		return repl.Position{Lineage: s.lineage(), Cursor: s.wal.DurableCursor()}
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return repl.Position{Lineage: s.replLineage, Cursor: s.replCursor}
}

// lineage is the reign epoch of the journal this node's cursor indexes.
func (s *Server) lineage() uint64 {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.replLineage
}

// readControlBody reads a control-plane request body into v, verifying
// the sender's checksum when one was sent (our own clients always send
// one; a bare curl may not). A mismatch means the body was damaged in
// flight and must not be acted on.
func readControlBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if want := r.Header.Get(repl.HeaderSum); want != "" {
		if got := repl.BodySum(body); got != want {
			return fmt.Errorf("body damaged in flight: sum %s, want %s", got, want)
		}
	}
	return json.Unmarshal(body, v)
}

// writeSummedJSON writes a control-plane JSON response with its CRC in
// repl.HeaderSum, so the receiver can reject bodies damaged in flight
// instead of folding in a corrupted epoch.
func writeSummedJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(repl.HeaderSum, repl.BodySum(body))
	w.WriteHeader(status)
	w.Write(body)
}

// handleElection receives a vote request (/v1/repl/vote) or a reign
// announce (/v1/repl/announce) and answers with the election driver's
// reply: a verdict, or this node's epoch — so a stale announcer learns it
// was superseded and fences itself.
func (s *Server) handleElection(kind repl.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var m repl.Message
		if err := readControlBody(w, r, 1<<12, &m); err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad election body: " + err.Error()})
			return
		}
		m.Kind = kind
		_, out, err := s.elect.Submit(r.Context(), repl.Input{Kind: kind, Msg: m})
		if err != nil || out.Reply == nil {
			writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: fmt.Sprintf("election state unavailable: %v", err)})
			return
		}
		if kind == repl.KindVote {
			if out.Reply.Granted {
				s.repl.votesGranted.Add(1)
			} else {
				s.repl.votesRefused.Add(1)
			}
		}
		writeSummedJSON(w, http.StatusOK, out.Reply)
	}
}

// handleReplFence force-feeds the node an epoch, fencing a primary
// without waiting for a follower of the new epoch to reach it. Operators
// call it on the old primary right after promoting a replica.
func (s *Server) handleReplFence(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch uint64 `json:"epoch"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<10)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad fence body: " + err.Error()})
		return
	}
	if req.Epoch == 0 {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "fence epoch must be positive"})
		return
	}
	st, _, err := s.elect.Submit(r.Context(), repl.Input{Kind: repl.KindFence, Msg: repl.Message{Epoch: req.Epoch}})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: "fence not durable: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"role": st.Role.String(), "epoch": st.Epoch, "fenced": st.Fenced,
	})
}

// batchRecordBuckets grades prorp_repl_batch_records: 1 is a replica keeping
// up write by write, the powers of two above it how much one fsync covered.
var batchRecordBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// registerReplMetrics puts the replication surface on /metrics: role,
// epoch, fencing, both lag gauges, and the stream counters on each side.
func (s *Server) registerReplMetrics() {
	reg := s.reg
	reg.GaugeFunc("prorp_repl_role", "Replication role: 1 primary, 0 replica.",
		func() float64 {
			if s.node.Role() == repl.RolePrimary {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("prorp_repl_epoch", "Highest replication epoch observed.",
		func() float64 { return float64(s.node.Epoch()) })
	reg.GaugeFunc("prorp_repl_fenced", "1 when this node is a fenced ex-primary.",
		func() float64 {
			if s.node.Fenced() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("prorp_repl_lag_records", "Records behind the primary (replica side).",
		func() float64 { r, _ := s.ReplicationLag(); return float64(r) })
	reg.GaugeFunc("prorp_repl_lag_seconds", "Age of the newest applied streamed record.",
		func() float64 { _, sec := s.ReplicationLag(); return sec })
	reg.GaugeFunc("prorp_repl_stream_lag_records", "Records the last stream response left behind (primary side).",
		func() float64 { return float64(s.repl.streamLag.Load()) })
	reg.GaugeFunc("prorp_repl_stream_parked", "Caught-up stream polls held open, waiting for a record to ship (primary side).",
		func() float64 { return float64(s.repl.streamParked.Load()) })

	counters := []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"prorp_repl_writes_rejected_total", "Mutations rejected with 503 on a non-primary.", &s.repl.writesRejected},
		{"prorp_repl_stream_batches_total", "Stream batches served to followers.", &s.repl.streamBatches},
		{"prorp_repl_stream_records_total", "Journal records shipped to followers.", &s.repl.streamRecords},
		{"prorp_repl_snapshots_served_total", "Resync snapshots served to followers.", &s.repl.snapshotsServed},
		{"prorp_repl_records_applied_total", "Streamed records journaled and applied.", &s.repl.applied},
		{"prorp_repl_records_skipped_total", "Streamed records skipped as already applied.", &s.repl.applySkipped},
		{"prorp_repl_election_votes_granted_total", "Election votes this node granted.", &s.repl.votesGranted},
		{"prorp_repl_election_votes_refused_total", "Election votes this node refused.", &s.repl.votesRefused},
	}
	for _, c := range counters {
		v := c.v
		reg.CounterFunc(c.name, c.help, func() uint64 { return v.Load() })
	}
	const persistsHelp = "Repl-state persists by kind: sync rewrites the file (temp, fsync, rename), progress overwrites the cursor line in place."
	reg.CounterFunc("prorp_repl_cursor_persists_total", persistsHelp,
		func() uint64 { return s.repl.syncPersists.Load() }, obs.L("kind", "sync"))
	reg.CounterFunc("prorp_repl_cursor_persists_total", persistsHelp,
		func() uint64 { return s.repl.progressPersists.Load() }, obs.L("kind", "progress"))
	s.batchHist = reg.Histogram("prorp_repl_batch_records",
		"Records per streamed batch applied on this replica (one journal write and one fsync each).", batchRecordBuckets)

	// Follower counters sample through the atomic pointer: failover creates
	// followers after registration (an ex-primary auto-demoting), so they
	// are registered whenever one exists now OR could exist later.
	if s.followerRef() != nil || len(s.cfg.ReplPeers) > 0 {
		followerCounters := []struct {
			name, help string
			fn         func(repl.FollowerStats) uint64
		}{
			{"prorp_repl_follower_batches_total", "Stream batches applied.", func(st repl.FollowerStats) uint64 { return st.Batches }},
			{"prorp_repl_follower_caught_up_polls_total", "Polls that found nothing new.", func(st repl.FollowerStats) uint64 { return st.CaughtUpPolls }},
			{"prorp_repl_follower_errors_total", "Stream, apply, and persist errors.", func(st repl.FollowerStats) uint64 { return st.StreamErrors }},
			{"prorp_repl_follower_corrupt_batches_total", "Batches cut or corrupted in flight.", func(st repl.FollowerStats) uint64 { return st.CorruptBatches }},
			{"prorp_repl_follower_resyncs_total", "Snapshot resyncs completed.", func(st repl.FollowerStats) uint64 { return st.Resyncs }},
		}
		for _, c := range followerCounters {
			fn := c.fn
			reg.CounterFunc(c.name, c.help, func() uint64 {
				f := s.followerRef()
				if f == nil {
					return 0
				}
				return fn(f.Stats())
			})
		}
	}

	if s.lease != nil {
		reg.GaugeFunc("prorp_repl_lease_ttl_seconds", "Configured primary-lease TTL.",
			func() float64 { return s.lease.TTL().Seconds() })
		reg.GaugeFunc("prorp_repl_lease_remaining_seconds", "Lease remaining (negative: lapsed by that much).",
			func() float64 { return s.lease.Remaining(s.now()).Seconds() })
		reg.GaugeFunc("prorp_repl_lease_expired", "1 when the primary lease has lapsed.",
			func() float64 {
				if s.lease.Expired(s.now()) {
					return 1
				}
				return 0
			})
		reg.CounterFunc("prorp_repl_lease_renewals_total", "Lease renewals from primary contact.",
			func() uint64 { return s.lease.Renewals() })
	}
	if s.lease != nil {
		reg.CounterFunc("prorp_repl_election_campaigns_total", "Candidacies this node stood.",
			func() uint64 { return s.elect.Stats().Campaigns })
		reg.CounterFunc("prorp_repl_election_wins_total", "Elections this node won.",
			func() uint64 { return s.elect.Stats().Wins })
		reg.CounterFunc("prorp_repl_election_losses_total", "Candidacies that fell short of a majority.",
			func() uint64 { return s.elect.Stats().Losses })
		reg.CounterFunc("prorp_repl_announces_total", "Reign broadcasts delivered to peers.",
			func() uint64 { return s.elect.Stats().Announces })
	}
	if s.coverage != nil {
		reg.GaugeFunc("prorp_repl_quorum_acks", "Replica acks each write waits for (K).",
			func() float64 { return float64(s.cfg.QuorumAcks) })
		reg.GaugeFunc("prorp_repl_quorum_peers", "Distinct followers observed for quorum coverage.",
			func() float64 { return float64(s.coverage.Peers()) })
		reg.CounterFunc("prorp_repl_quorum_timeouts_total", "Quorum-acked writes refused on timeout.",
			func() uint64 { return s.repl.quorumTimeouts.Load() })
		s.quorumHist = reg.Histogram("prorp_repl_quorum_wait_duration_seconds",
			"Time a quorum-acked write waited, after its local fsync, for replica acks.", obs.LatencyBuckets)
	}
}
