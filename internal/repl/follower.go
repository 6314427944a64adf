package repl

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prorp/internal/faults"
	"prorp/internal/wal"
)

// Stream protocol headers. Every stream and snapshot exchange carries the
// sender's epoch, so fencing information propagates with the data path
// instead of needing a separate channel.
const (
	HeaderEpoch  = "X-Repl-Epoch"
	HeaderCursor = "X-Repl-Cursor" // effective batch start
	// HeaderNextCursor is the cursor after the batch on a 200. On a 204 it is
	// sent when the primary normalised ?after to a different position — the
	// clean end of a sealed segment hops to the start of the next — so a
	// caught-up follower leaves a segment before compaction deletes it.
	HeaderNextCursor = "X-Repl-Next-Cursor"
	HeaderLagRecords = "X-Repl-Lag-Records" // records still behind after the batch
	HeaderNode       = "X-Repl-Node"        // follower's node id (quorum coverage key)
	HeaderLeaseTTL   = "X-Repl-Lease-Ms"    // primary's lease grant, relative ms
	// HeaderReign is the reign epoch of the journal being served: the epoch
	// at which the serving primary was promoted, NOT its current epoch — a
	// fenced ex-primary's epoch moves on while its journal stays in the old
	// reign's cursor space. Followers record it as the lineage of their
	// cursor, the vote-comparison guard (see election.go).
	HeaderReign = "X-Repl-Reign"
)

// FollowerConfig assembles a Follower.
type FollowerConfig struct {
	// PrimaryURL is the primary's base URL ("http://host:port").
	PrimaryURL string
	// Doer performs the HTTP round trips; chaos tests wrap it in a
	// faults.FaultDoer. Default http.DefaultClient.
	Doer faults.Doer
	// Clock times the back-off after a failed poll (default wall clock).
	Clock faults.Clock
	// PollInterval is the back-off after a failed, torn or cut poll (default
	// 250ms). It is not a cadence: an answered poll — a batch or a 204 — is
	// followed by the next one at once, and the primary holds a caught-up
	// poll open until it has a record to ship.
	PollInterval time.Duration
	// MaxBatchBytes caps one stream batch (default 256 KiB).
	MaxBatchBytes int
	// Node is the local role/epoch state machine.
	Node *Node
	// Apply journalizes one streamed batch — the intact records of one poll,
	// in stream order — into the local WAL with one write and one fsync, then
	// applies them to the local fleet: the replica's journalize-before-apply
	// path. It returns how many records it applied, from the front; the
	// cursor advances past exactly those, so with a non-nil error the rest
	// are re-streamed on the next poll (a journal error applies none).
	Apply func(recs []wal.Record) (applied int, err error)
	// Persist, when non-nil, records the follower's cursor. sync=true means
	// the write must be fsynced before returning (a resync's new lineage).
	// Cursor-only progress need only survive a process kill: after a machine
	// crash the host may boot with an older cursor, never a newer one.
	// Re-applying what an older cursor re-streams is tolerated, not
	// idempotent — creates, deletes and history tuples dedup, a login or
	// logout re-runs its transition — so the host persists after every batch
	// and the overlap stays one batch.
	Persist func(c wal.Cursor, sync bool) error
	// Adopt, when non-nil, takes in a primary epoch beyond the node's and
	// returns once it is durable (the election driver's Adopt). It runs
	// before anything that primary sent is applied.
	Adopt func(ctx context.Context, epoch uint64) error
	// Resync, when non-nil, performs a snapshot resync from primary after it
	// reports the cursor unusable (compacted or ahead): fetch its snapshot,
	// swap the local fleet, and return the cursor to stream from plus the
	// reign epoch of the journal it indexes (0 if the primary did not say).
	Resync func(primary string, primaryEpoch uint64) (wal.Cursor, uint64, error)
	// ResyncOnStart forces a snapshot resync before the first stream poll.
	// The host sets it when the node boots with local state but no stream
	// cursor covering it — a rebooted ex-primary, or a seeded snapshot.
	// Records carry no sequence numbers and events are not idempotent, so
	// streaming from genesis on top of existing state double-applies the
	// overlap and diverges; adopting the primary's snapshot wholesale is
	// the only safe entry into its lineage.
	ResyncOnStart bool
	// NodeID, when non-empty, is sent as X-Repl-Node on every poll so the
	// primary can attribute the poll's cursor to this follower in its
	// quorum-coverage map.
	NodeID string
	// Lease, when non-nil, is renewed by every authoritative response from
	// a current-epoch primary (200/204, and the resync verdicts 410/416).
	Lease *Lease
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// FollowerStats is a point-in-time snapshot of the follower's counters.
type FollowerStats struct {
	Batches        uint64 // 200 responses applied (fully or partially)
	Records        uint64 // records applied
	CaughtUpPolls  uint64 // 204 responses
	StreamErrors   uint64 // transport, protocol, apply, and persist errors
	CorruptBatches uint64 // batches cut short by framing/CRC damage
	Resyncs        uint64 // snapshot resyncs completed
}

// Follower is the replica's stream loop: one long poll after another, each
// poll's ?after cursor acknowledging everything the one before delivered.
// Build with NewFollower, then Start; Stop is idempotent and waits for the
// loop to exit.
type Follower struct {
	cfg FollowerConfig

	// ctx is the loop's lifetime, cancelled by Stop; every poll runs under a
	// child of it, so a poll the primary has parked never holds Stop up.
	ctx    context.Context
	cancel context.CancelFunc

	mu              sync.Mutex
	primary         string             // mutable: failover repoints the follower
	cancelPoll      context.CancelFunc // the in-flight poll's, nil between polls
	needResync      bool               // snapshot resync required before the next poll
	cursor          wal.Cursor
	sourceReign     uint64 // lineage of cursor: reign epoch of the journal it indexes
	caughtUp        bool
	lagRecords      int64
	lastAppliedUnix int64
	lastErr         string

	batches        atomic.Uint64
	records        atomic.Uint64
	caughtUpPolls  atomic.Uint64
	streamErrors   atomic.Uint64
	corruptBatches atomic.Uint64
	resyncs        atomic.Uint64

	startOnce sync.Once
	done      chan struct{}
}

// defaultFollowerClient bounds every stream poll and snapshot fetch:
// http.DefaultClient has no timeout, and a primary that accepts the
// connection then hangs would wedge the stream loop forever — the follower
// would neither stream nor notice the primary is gone.
var defaultFollowerClient = &http.Client{Timeout: 30 * time.Second}

// NewFollower builds a follower that will stream from cursor onward.
func NewFollower(cfg FollowerConfig, cursor wal.Cursor) *Follower {
	if cfg.Doer == nil {
		cfg.Doer = defaultFollowerClient
	}
	if cfg.Clock == nil {
		cfg.Clock = faults.WallClock{}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 256 << 10
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.PrimaryURL = strings.TrimRight(cfg.PrimaryURL, "/")
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		cfg:        cfg,
		ctx:        ctx,
		cancel:     cancel,
		primary:    cfg.PrimaryURL,
		needResync: cfg.ResyncOnStart,
		cursor:     cursor,
		done:       make(chan struct{}),
	}
}

// PrimaryURL reports the primary the follower currently polls.
func (f *Follower) PrimaryURL() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}

// SetPrimary repoints the follower at a different primary — the failover
// path, driven by an announce from an election winner. The local cursor
// addresses the OLD primary's journal, and cursor spaces are per-lineage
// (each node journals streamed records at its own offsets), so repointing
// forces a snapshot resync rather than resuming the cursor against a
// journal it never came from. A poll parked at the old primary is cancelled,
// so the resync starts now rather than when that primary lets go of it.
func (f *Follower) SetPrimary(url string) {
	url = strings.TrimRight(url, "/")
	f.mu.Lock()
	defer f.mu.Unlock()
	if url == "" || url == f.primary {
		return
	}
	f.primary = url
	f.needResync = true
	f.sourceReign = 0 // the new primary's journal is a different lineage
	f.caughtUp = false
	if f.cancelPoll != nil {
		f.cancelPoll()
	}
}

// Start launches the stream loop.
func (f *Follower) Start() {
	f.startOnce.Do(func() { go f.run() })
}

// Stop halts the stream loop — cancelling the poll in flight, which the
// primary may be holding open — and waits for it to exit. A batch already
// being applied is applied to its end. Safe to call more than once, and
// before Start (the loop then never runs).
func (f *Follower) Stop() {
	f.cancel()
	f.startOnce.Do(func() { close(f.done) }) // never started: release waiters
	<-f.done
}

// Cursor reports the follower's current stream position.
func (f *Follower) Cursor() wal.Cursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor
}

// SourceReign reports the lineage of the follower's cursor: the reign
// epoch of the primary whose journal the cursor indexes, 0 while unknown
// (never polled, or repointed and not yet resynced).
func (f *Follower) SourceReign() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sourceReign
}

// Stats snapshots the follower's counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		Batches:        f.batches.Load(),
		Records:        f.records.Load(),
		CaughtUpPolls:  f.caughtUpPolls.Load(),
		StreamErrors:   f.streamErrors.Load(),
		CorruptBatches: f.corruptBatches.Load(),
		Resyncs:        f.resyncs.Load(),
	}
}

// LagRecords reports how many records behind the primary the follower was
// at its last successful poll.
func (f *Follower) LagRecords() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lagRecords
}

// LagSeconds estimates replication lag in seconds at time now: zero while
// caught up, otherwise the age of the newest applied record. Before the
// first applied record it reports zero — unknown, not infinite.
func (f *Follower) LagSeconds(now time.Time) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.caughtUp || f.lastAppliedUnix == 0 {
		return 0
	}
	d := now.Unix() - f.lastAppliedUnix
	if d < 0 {
		return 0
	}
	return float64(d)
}

// LastError reports the most recent stream error, for /healthz.
func (f *Follower) LastError() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

func (f *Follower) run() {
	defer close(f.done)
	for f.ctx.Err() == nil {
		// One lock hold decides what this turn does and registers its
		// cancel, so a SetPrimary lands either before the turn (which then
		// resyncs) or on a poll it can cancel — never on a poll of the new
		// primary at the old primary's cursor.
		ctx, cancel := context.WithCancel(f.ctx)
		f.mu.Lock()
		forced, primary, cur := f.needResync, f.primary, f.cursor
		f.cancelPoll = cancel
		f.mu.Unlock()

		var d time.Duration
		if forced {
			// Boot state no cursor covers, or a repoint to a new primary:
			// adopt its snapshot before streaming (see SetPrimary).
			d = f.resync(primary, 0, 0)
		} else {
			d = f.pollOnce(ctx, primary, cur)
		}

		f.mu.Lock()
		f.cancelPoll = nil
		f.mu.Unlock()
		cancel()
		if d > 0 {
			f.sleep(d)
		}
	}
}

// sleep backs off after a failed poll, returning early when Stop is called.
// The clock's Sleep runs in a goroutine so a manual-clock test can't wedge
// shutdown.
func (f *Follower) sleep(d time.Duration) {
	ch := make(chan struct{})
	go func() {
		f.cfg.Clock.Sleep(d)
		close(ch)
	}()
	select {
	case <-f.ctx.Done():
	case <-ch:
	}
}

func (f *Follower) fail(format string, args ...any) time.Duration {
	f.streamErrors.Add(1)
	msg := fmt.Sprintf(format, args...)
	f.mu.Lock()
	f.lastErr = msg
	f.caughtUp = false
	f.mu.Unlock()
	f.cfg.Logf("repl follower: %s", msg)
	return f.cfg.PollInterval
}

// pollOnce performs one stream exchange with primary from cursor cur and
// returns how long to back off before the next: 0 after every answered
// poll — the next poll is what acknowledges this one's records, and the
// primary, not the follower, decides how long a caught-up poll waits —
// PollInterval after a failure. A poll cancelled by Stop or SetPrimary is
// not a failure.
func (f *Follower) pollOnce(ctx context.Context, primary string, cur wal.Cursor) time.Duration {
	url := fmt.Sprintf("%s/v1/repl/stream?after=%s&max=%d", primary, cur, f.cfg.MaxBatchBytes)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return f.fail("building request: %v", err)
	}
	req.Header.Set(HeaderEpoch, strconv.FormatUint(f.cfg.Node.Epoch(), 10))
	if f.cfg.NodeID != "" {
		req.Header.Set(HeaderNode, f.cfg.NodeID)
	}
	resp, err := f.cfg.Doer.Do(req)
	if resp != nil {
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	if ctx.Err() != nil {
		// Cancelled while in flight. Whatever came back — an error, or the
		// empty answer of a handler that saw its client leave — says nothing
		// about the primary.
		return 0
	}
	if err != nil {
		return f.fail("stream %s: %v", cur, err)
	}

	primaryEpoch, _ := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	if primaryEpoch > 0 && primaryEpoch < f.cfg.Node.Epoch() {
		// A stale primary from a previous epoch (a healed partition):
		// never apply its stream — and never renew the lease off it.
		return f.fail("ignoring stale primary at epoch %d (ours is %d)", primaryEpoch, f.cfg.Node.Epoch())
	}
	if primaryEpoch > f.cfg.Node.Epoch() && f.cfg.Adopt != nil {
		if err := f.cfg.Adopt(ctx, primaryEpoch); err != nil {
			if ctx.Err() != nil {
				return 0
			}
			return f.fail("adopting epoch %d: %v", primaryEpoch, err)
		}
	}
	// Authoritative contact from a current-epoch primary renews the lease;
	// that includes the resync verdicts — a primary telling us to resync is
	// very much alive.
	renew := func() {
		if f.cfg.Lease != nil && primaryEpoch > 0 {
			ttlMs, _ := strconv.ParseInt(resp.Header.Get(HeaderLeaseTTL), 10, 64)
			f.cfg.Lease.Renew(primaryEpoch, time.Duration(ttlMs)*time.Millisecond)
		}
	}

	// The reign header tags the journal this cursor indexes; learned on
	// every authoritative data-path response so even a genesis-attached
	// replica (which never resyncs) knows its lineage before it votes.
	reign, _ := strconv.ParseUint(resp.Header.Get(HeaderReign), 10, 64)

	switch resp.StatusCode {
	case http.StatusOK:
		renew()
		return f.applyBatch(ctx, resp, reign)
	case http.StatusNoContent:
		renew()
		return f.caughtUpAt(resp, cur, reign)
	case http.StatusGone, http.StatusRequestedRangeNotSatisfiable:
		// Cursor unusable: compacted below retained history (410) or ahead
		// of the primary's lineage (416). Both mean snapshot resync.
		renew()
		return f.resync(primary, primaryEpoch, resp.StatusCode)
	default:
		return f.fail("stream %s: primary said %d", cur, resp.StatusCode)
	}
}

// caughtUpAt folds in a 204: nothing to apply, possibly a cursor to adopt.
// The primary names a cursor when cur normalises to a later position — the
// end of a segment it has since sealed — and the follower moves there (and
// says so durably), so the segment it has finished with can be compacted
// without stranding it. Only forwards: a cursor behind ours is a reordered
// or confused answer, and following it would re-apply records.
func (f *Follower) caughtUpAt(resp *http.Response, cur wal.Cursor, reign uint64) time.Duration {
	f.caughtUpPolls.Add(1)
	moved := false
	if h := resp.Header.Get(HeaderNextCursor); h != "" {
		next, err := wal.ParseCursor(h)
		if err != nil {
			return f.fail("bad %s header: %v", HeaderNextCursor, err)
		}
		if cur.Before(next) {
			cur, moved = next, true
		}
	}
	f.mu.Lock()
	if moved {
		f.cursor = cur
	}
	f.caughtUp = true
	f.lagRecords = 0
	f.lastErr = ""
	if reign > 0 {
		f.sourceReign = reign
	}
	f.mu.Unlock()
	if moved && f.cfg.Persist != nil {
		if err := f.cfg.Persist(cur, false); err != nil {
			return f.fail("persisting cursor %s: %v", cur, err)
		}
	}
	return 0
}

func (f *Follower) applyBatch(ctx context.Context, resp *http.Response, reign uint64) time.Duration {
	start, err := wal.ParseCursor(resp.Header.Get(HeaderCursor))
	if err != nil {
		return f.fail("bad %s header: %v", HeaderCursor, err)
	}
	next, err := wal.ParseCursor(resp.Header.Get(HeaderNextCursor))
	if err != nil {
		return f.fail("bad %s header: %v", HeaderNextCursor, err)
	}
	hdrLag, _ := strconv.ParseInt(resp.Header.Get(HeaderLagRecords), 10, 64)
	// A batch never crosses a segment, so the cursor span is its declared
	// length. A body shorter than declared was cut in flight — crucially,
	// even when the cut lands exactly on a frame boundary and the framing
	// alone would scan clean.
	if next.Seg != start.Seg || next.Off < start.Off {
		return f.fail("batch cursors %s..%s span segments", start, next)
	}
	declared := next.Off - start.Off
	// One extra frame of headroom: a batch is never larger than what we
	// asked for, so anything bigger is damage, not data.
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(f.cfg.MaxBatchBytes)+wal.FrameSize))
	if ctx.Err() != nil {
		return 0 // cancelled mid-body: nothing applied, nothing to report
	}
	if err != nil {
		return f.fail("reading batch at %s: %v", start, err)
	}
	if int64(len(body)) > declared {
		return f.fail("batch at %s is %d bytes, declared %d", start, len(body), declared)
	}

	// One scan of the body collects the intact prefix; Apply journalizes it
	// in one append and applies it.
	recs := make([]wal.Record, 0, len(body)/int(wal.FrameSize))
	_, torn, _ := wal.ScanStream(body, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	var (
		applied int
		aerr    error
	)
	if len(recs) > 0 {
		applied, aerr = f.cfg.Apply(recs)
	}
	consumed := int64(applied) * wal.FrameSize
	f.records.Add(uint64(applied))
	if applied > 0 {
		f.batches.Add(1)
	}

	// Advance exactly past what was applied: the full batch's next cursor
	// on a clean scan of the declared length, start+consumed otherwise. A
	// cursor short of the batch's end only re-streams what was not applied.
	full := !torn && aerr == nil && consumed == declared
	cut := !full && aerr == nil && !torn // truncated on a frame boundary
	newCur := next
	if !full {
		newCur = wal.Cursor{Seg: start.Seg, Off: start.Off + consumed}
	}
	lag := hdrLag
	if !full {
		lag += (declared - consumed) / wal.FrameSize
	}
	f.mu.Lock()
	f.cursor = newCur
	if applied > 0 {
		f.lastAppliedUnix = recs[applied-1].Unix
	}
	if reign > 0 {
		f.sourceReign = reign
	}
	f.lagRecords = lag
	f.caughtUp = full && lag == 0
	if aerr == nil {
		f.lastErr = ""
	}
	f.mu.Unlock()
	if f.cfg.Persist != nil {
		if err := f.cfg.Persist(newCur, false); err != nil {
			return f.fail("persisting cursor %s: %v", newCur, err)
		}
	}
	switch {
	case aerr != nil:
		return f.fail("applying record at %s+%d: %v", start, consumed, aerr)
	case torn, cut:
		// The batch was cut or corrupted in flight; re-poll after a beat
		// rather than hammering a damaged path.
		f.corruptBatches.Add(1)
		f.cfg.Logf("repl follower: batch at %s damaged after %d of %d bytes; re-polling", start, consumed, declared)
		return f.cfg.PollInterval
	default:
		// Poll again at once, behind or not: the next poll's cursor is the
		// acknowledgment the primary's writers are waiting for.
		return 0
	}
}

func (f *Follower) resync(primary string, primaryEpoch uint64, status int) time.Duration {
	if f.cfg.Resync == nil {
		return f.fail("cursor %s unusable (%d) and no resync configured", f.Cursor(), status)
	}
	if status == 0 {
		f.cfg.Logf("repl follower: local state predates the stream cursor; snapshot resync before first poll")
	} else {
		f.cfg.Logf("repl follower: cursor %s unusable (%d); snapshot resync", f.Cursor(), status)
	}
	cur, reign, err := f.cfg.Resync(primary, primaryEpoch)
	if err != nil {
		return f.fail("snapshot resync: %v", err)
	}
	f.resyncs.Add(1)
	f.mu.Lock()
	f.cursor = cur
	if reign > 0 {
		// Learn the lineage at resync, not only at the first poll after it:
		// a replica that resynced but lost the primary before polling must
		// still be able to compare cursors when it stands or votes.
		f.sourceReign = reign
	}
	f.needResync = false
	// The snapshot is the primary's state as of now: nothing is known to
	// be missing until a poll says otherwise, and that poll may be parked.
	f.caughtUp = true
	f.lagRecords = 0
	f.lastErr = ""
	f.mu.Unlock()
	if f.cfg.Persist != nil {
		if err := f.cfg.Persist(cur, true); err != nil {
			return f.fail("persisting resynced cursor %s: %v", cur, err)
		}
	}
	return 0
}
