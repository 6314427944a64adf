// Live slot migration: POST /v1/shard/migrate snapshot-ships one slot's
// databases to the new owning group and cuts the slot over behind a write
// fence, so no acknowledged write is lost mid-move.
//
// Protocol (source side):
//
//  1. fence the slot — mutations get 503 + Retry-After, reads keep serving
//  2. quiesce under the exclusive side of walGate and snapshot every
//     database in the slot
//  3. ship the transfer frame (proposed map + databases) to the destination,
//     retrying transient failures; the destination restores, persists a
//     snapshot, and adopts the bumped map BEFORE acking — so a lost ack
//     still left a durable owner
//  4. on ack (or a lost-ack probe showing the destination owns the slot):
//     adopt the bumped map, journal-delete the moved databases, unfence
//
// A crash anywhere leaves the system recoverable: before the destination's
// durable adopt the source still owns everything; after it, the bumped map
// wins reconciliation and the source's stale copies are swept.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"prorp/internal/frame"
	"prorp/internal/shardmap"
	"prorp/internal/wal"
)

// maxTransferBytes caps one slot transfer (matches the resync fetch cap).
const maxTransferBytes = 1 << 30

// transferEntry is one database inside a transfer: its id and its bare
// policy body.
type transferEntry struct {
	id   int64
	body []byte
}

// encodeTransfer frames a slot transfer as one KindTransfer frame whose
// body is
//
//	u16 slot | u32 mapLen | map body | u32 count |
//	per db: u64 id | u32 len | policy body
//
// The one CRC covers the slot, the map, the count and every database, so a
// mangled transfer is rejected before any of it is parsed.
func encodeTransfer(slot int, m *shardmap.Map, entries []transferEntry) []byte {
	const head = frame.HeaderSize + 6 // + slot + mapLen
	b := m.AppendBody(make([]byte, head))
	binary.LittleEndian.PutUint16(b[frame.HeaderSize:], uint16(slot))
	binary.LittleEndian.PutUint32(b[frame.HeaderSize+2:], uint32(len(b)-head))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.id))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.body)))
		b = append(b, e.body...)
	}
	return frame.Seal(frame.KindTransfer, b)
}

// decodeTransfer verifies and parses a transfer, returning each database
// re-framed as the image ShardedFleet.Restore reads.
func decodeTransfer(b []byte) (slot int, m *shardmap.Map, dbs map[int64][]byte, err error) {
	fail := func(format string, args ...any) (int, *shardmap.Map, map[int64][]byte, error) {
		return 0, nil, nil, fmt.Errorf("transfer: "+format, args...)
	}
	b, err = frame.Decode(frame.KindTransfer, b)
	if err != nil {
		return fail("%w", err)
	}
	if len(b) < 6 {
		return fail("%w: %d-byte body", frame.ErrShort, len(b))
	}
	slot = int(binary.LittleEndian.Uint16(b[0:2]))
	if slot >= shardmap.NumSlots {
		return fail("slot %d out of range", slot)
	}
	mapLen := int(binary.LittleEndian.Uint32(b[2:6]))
	b = b[6:]
	if len(b) < mapLen+4 {
		return fail("truncated map")
	}
	m, err = shardmap.DecodeBody(b[:mapLen])
	if err != nil {
		return fail("map: %w", err)
	}
	count := binary.LittleEndian.Uint32(b[mapLen : mapLen+4])
	b = b[mapLen+4:]
	// Each entry takes at least its 12-byte id and length: a count the
	// remaining bytes cannot hold is damage, refused before it sizes
	// anything.
	if uint64(count) > uint64(len(b))/12 {
		return fail("%d entries cannot fit in %d bytes", count, len(b))
	}
	dbs = make(map[int64][]byte, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 12 {
			return fail("truncated entry %d", i)
		}
		id := int64(binary.LittleEndian.Uint64(b[0:8]))
		l := int(binary.LittleEndian.Uint32(b[8:12]))
		b = b[12:]
		if len(b) < l {
			return fail("truncated database %d", id)
		}
		if shardmap.SlotOf(int(id)) != slot {
			return fail("database %d does not hash to slot %d", id, slot)
		}
		dbs[id] = frame.Seal(frame.KindDatabase, append(make([]byte, frame.HeaderSize, frame.HeaderSize+l), b[:l]...))
		b = b[l:]
	}
	if len(b) != 0 {
		return fail("%d trailing bytes", len(b))
	}
	return slot, m, dbs, nil
}

// stopped reports whether Kill/Close has begun: the migration cutover
// checks it between steps so a killed server approximates a crash instead
// of finishing the protocol on a dead fleet.
func (s *Server) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

type migrateRequest struct {
	Slot int    `json:"slot"`
	To   string `json:"to"`
}

// handleShardMigrate is the source side of a slot migration.
func (s *Server) handleShardMigrate(w http.ResponseWriter, r *http.Request) {
	rt := s.router
	if rt == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "server is not partitioned (no -group configured)"})
		return
	}
	if s.rejectNonPrimary(w) {
		return
	}
	var req migrateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad migrate body: " + err.Error()})
		return
	}
	m := rt.mapP.Load()
	switch {
	case req.Slot < 0 || req.Slot >= shardmap.NumSlots:
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("slot %d out of range [0,%d)", req.Slot, shardmap.NumSlots)})
		return
	case !m.HasGroup(req.To):
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("unknown destination group %q", req.To)})
		return
	case m.Owner(req.Slot) == req.To:
		// Idempotent: the slot already lives there (a retried migrate).
		writeJSON(w, http.StatusOK, map[string]any{
			"slot": req.Slot, "from": rt.group, "to": req.To,
			"version": m.Version(), "databases": 0, "noop": true,
		})
		return
	case m.Owner(req.Slot) != rt.group:
		writeJSON(w, http.StatusConflict, errorJSON{Error: fmt.Sprintf(
			"slot %d is owned by %q, not this group (%q)", req.Slot, m.Owner(req.Slot), rt.group)})
		return
	}
	addr := rt.peers[req.To]
	if addr == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("no address for group %q", req.To)})
		return
	}

	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	rt.fence(req.Slot)
	fenced := true
	defer func() {
		if fenced {
			rt.unfence(req.Slot)
		}
	}()

	// Quiesce: in-flight writes hold walGate shared, so the exclusive lock
	// drains them; new writes to the slot are fence-rejected. The archives
	// taken here are the slot's complete acknowledged state.
	var entries []transferEntry
	s.walGate.Lock()
	var archiveErr error
	for _, id := range s.Fleet().IDs() {
		if shardmap.SlotOf(id) != req.Slot {
			continue
		}
		var buf bytes.Buffer
		err := s.Fleet().Snapshot(id, &buf)
		var body []byte
		if err == nil {
			body, err = frame.Decode(frame.KindDatabase, buf.Bytes())
		}
		if err != nil {
			archiveErr = fmt.Errorf("archiving database %d: %w", id, err)
			break
		}
		entries = append(entries, transferEntry{id: int64(id), body: body})
	}
	s.walGate.Unlock()
	if archiveErr != nil {
		rt.migrationsFail.Add(1)
		s.writeErr(w, archiveErr)
		return
	}

	proposed, err := m.WithOwner(req.Slot, req.To)
	if err != nil {
		rt.migrationsFail.Add(1)
		s.writeErr(w, err)
		return
	}
	adopted, err := s.shipTransfer(addr, req.To, req.Slot, encodeTransfer(req.Slot, proposed, entries), proposed)
	if err != nil {
		rt.migrationsFail.Add(1)
		s.logf("migration of slot %d to %q failed: %v", req.Slot, req.To, err)
		writeJSON(w, http.StatusBadGateway, errorJSON{Error: fmt.Sprintf(
			"shipping slot %d to %q: %v", req.Slot, req.To, err)})
		return
	}
	if s.stopped() {
		// Killed mid-protocol: behave like a crash — no cutover. Boot-time
		// reconciliation settles ownership from the durable maps.
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "server stopping"})
		return
	}

	// Cutover: adopt (and persist) the bumped map first — from here the
	// bumped map wins any reconciliation — then journal-delete the moved
	// databases. A crash between the two leaves stale local copies that the
	// boot sweep removes.
	rt.adopt(adopted)
	for _, e := range entries {
		id := int(e.id)
		s.walGate.RLock()
		_, derr := s.journalize(wal.RecordDelete, id, s.now())
		if derr == nil {
			derr = s.Fleet().Delete(id)
		}
		s.walGate.RUnlock()
		if derr != nil {
			s.logf("migration: dropping moved database %d: %v (boot sweep will retry)", id, derr)
			continue
		}
		s.wakes.schedule(id, time.Time{})
	}
	rt.unfence(req.Slot)
	fenced = false
	rt.migrations.Add(1)
	rt.dbsMigrated.Add(uint64(len(entries)))
	s.logf("migrated slot %d (%d databases) to %q, map v%d", req.Slot, len(entries), req.To, adopted.Version())
	writeJSON(w, http.StatusOK, map[string]any{
		"slot": req.Slot, "from": rt.group, "to": req.To,
		"version": adopted.Version(), "databases": len(entries),
	})
}

// shipTransfer POSTs the transfer to the destination with retries. It
// returns the map the destination durably owns: normally the proposed map,
// but possibly a newer one (a retried adopt reports the destination's
// current version). When every attempt fails it probes the destination's
// map — a lost ack after a durable adopt must count as success, otherwise
// the source would keep serving a slot the destination already owns.
func (s *Server) shipTransfer(addr, to string, slot int, body []byte, proposed *shardmap.Map) (*shardmap.Map, error) {
	attempts := s.cfg.Backoff.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts && !s.stopped(); attempt++ {
		if attempt > 0 {
			// Re-ships draw on the shared retry budget: during an outage the
			// lost-ack probe below decides the migration's fate instead of a
			// storm of doomed re-sends piling onto a struggling destination.
			if !s.spendRetry() {
				break
			}
			s.clock.Sleep(s.cfg.Backoff.Delay(attempt))
		}
		req, err := http.NewRequest(http.MethodPost, addr+"/v1/shard/adopt", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := s.router.doer.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		s.earnRetry()
		respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return proposed, nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			// Structural refusal: retrying the same payload cannot help.
			return nil, fmt.Errorf("destination refused: status %d: %s", resp.StatusCode, bytes.TrimSpace(respBody))
		default:
			lastErr = fmt.Errorf("status %d (%v)", resp.StatusCode, rerr)
		}
	}
	// Lost-ack probe: if the destination durably adopted before its ack
	// reached us, its map already shows the new ownership.
	if dm, perr := s.fetchGroupMap(addr); perr == nil &&
		dm.Version() >= proposed.Version() && dm.Owner(slot) == to {
		s.logf("migration: ack lost but destination owns slot %d at v%d; treating as success", slot, dm.Version())
		return dm, nil
	}
	if lastErr == nil {
		lastErr = errors.New("server stopping")
	}
	return nil, lastErr
}

// handleShardAdopt is the destination side: verify the transfer, restore
// every database, persist a snapshot (the restored state must survive a
// crash BEFORE the ack — the same durable-adoption ordering as replResync),
// adopt the bumped map, then ack.
func (s *Server) handleShardAdopt(w http.ResponseWriter, r *http.Request) {
	rt := s.router
	if rt == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "server is not partitioned (no -group configured)"})
		return
	}
	if s.rejectNonPrimary(w) {
		return
	}
	// A WAL-only node (journal but no snapshot store) cannot make an adopted
	// slot durable: journal records carry only (type, id, time), not the
	// shipped archives, so a crash after the ack would replay none of the
	// restored state while the source has already journal-deleted its
	// copies. Refuse structurally (4xx — shipTransfer will not retry), so
	// the source aborts the migration with its data intact.
	if s.store == nil && s.wal != nil {
		writeJSON(w, http.StatusPreconditionFailed, errorJSON{Error: "this node persists through a WAL only (no -snapshot); it cannot durably adopt a slot transfer"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTransferBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "reading transfer: " + err.Error()})
		return
	}
	slot, proposed, dbs, err := decodeTransfer(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	if proposed.Owner(slot) != rt.group {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf(
			"transfer assigns slot %d to %q, not this group (%q)", slot, proposed.Owner(slot), rt.group)})
		return
	}
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	cur := rt.mapP.Load()
	if proposed.Version() <= cur.Version() {
		if cur.Owner(slot) == rt.group {
			// Duplicate of an adopt we already own durably (retried after a
			// lost ack): acknowledge idempotently.
			writeJSON(w, http.StatusOK, map[string]any{
				"version": cur.Version(), "databases": 0, "adopted": false,
			})
			return
		}
		writeJSON(w, http.StatusConflict, errorJSON{Error: fmt.Sprintf(
			"transfer map v%d is not newer than current v%d", proposed.Version(), cur.Version())})
		return
	}

	// Restore each database: delete-then-restore makes a re-shipped
	// transfer an idempotent replace of any partial earlier attempt.
	restored := 0
	for id, payload := range dbs {
		s.walGate.RLock()
		s.Fleet().Delete(int(id)) // ErrUnknownDatabase is the common case
		wakeAt, rerr := s.Fleet().Restore(int(id), bytes.NewReader(payload))
		s.walGate.RUnlock()
		if rerr != nil {
			writeJSON(w, http.StatusInternalServerError, errorJSON{Error: fmt.Sprintf(
				"restoring database %d: %v", id, rerr)})
			return
		}
		s.wakes.schedule(int(id), wakeAt)
		restored++
	}
	// Durability before acknowledgement: the restored databases enter a
	// snapshot (with a fresh WAL boundary) before the source is told it may
	// delete its copies. Without this, a crash after the ack loses the slot.
	// s.store == nil here means a memory-only node (WAL-only was refused
	// above): nothing on this node is durable, so there is nothing to write.
	if s.store != nil {
		if _, serr := s.writeSnapshot(); serr != nil {
			writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: fmt.Sprintf(
				"persisting adopted slot %d: %v", slot, serr)})
			return
		}
	}
	rt.adopt(proposed)
	s.logf("adopted slot %d (%d databases) at map v%d", slot, restored, proposed.Version())
	writeJSON(w, http.StatusOK, map[string]any{
		"version": proposed.Version(), "databases": restored, "adopted": true,
	})
}
