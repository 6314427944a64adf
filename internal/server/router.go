// Shard routing: every per-database request resolves through the versioned
// slot map (internal/shardmap) and is served locally, proxied to the owning
// group's primary, or 307-redirected there. The map version acts like a
// routing epoch: requests carrying a stale version are refused with 421 and
// the current map, so a client (or peer) can never write through a group
// that no longer owns the slot.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prorp/internal/breaker"
	"prorp/internal/faults"
	"prorp/internal/shardmap"
	"prorp/internal/wal"
)

// Routing headers. Every routed response names the serving group and its
// map version; proxied requests carry the forwarding group so a second hop
// (two groups disagreeing about ownership) fails fast instead of looping.
const (
	HeaderShardGroup      = "X-Shard-Group"
	HeaderShardmapVersion = "X-Shardmap-Version"
	HeaderShardForwarded  = "X-Shard-Forwarded"
)

// errSlotFenced refuses writes to a slot mid-migration: the cutover window
// between quiesce and map swap. Mapped to 503 + Retry-After — by the time
// the client retries, the new owner (or the aborted fence-holder) serves it.
var errSlotFenced = errors.New("slot is write-fenced for migration")

// routeError carries a routing verdict through writeErr: 307 when the
// owner's address is known (Location set), 421 when the request reached a
// group that does not own the database or carried a stale map version. The
// body includes the current map so the client can fix its routing table.
type routeError struct {
	status   int // http.StatusTemporaryRedirect or http.StatusMisdirectedRequest
	owner    string
	location string
	m        *shardmap.Map
	reason   string
}

func (e *routeError) Error() string { return e.reason }

// router is the per-server routing state: the current map (atomic pointer,
// swapped whole on adoption), the peer address book, and the write fences
// that hold during migration cutover.
type router struct {
	group    string
	peers    map[string]string // other groups -> base URL
	redirect bool              // 307 instead of proxying
	doer     faults.Doer
	breakers *breaker.Group // per-peer circuits around doer (nil = disabled)
	path     string         // shard-map file ("" = memory only)
	fs       faults.FS
	logf     func(string, ...any)

	// mapP is lock-free for readers; adoptMu serializes writers (see adopt).
	mapP    atomic.Pointer[shardmap.Map]
	adoptMu sync.Mutex

	fenceMu sync.Mutex
	fenced  map[int]bool

	// Counters, exported through /metrics (see registerRouterMetrics).
	localRequests   atomic.Uint64
	proxied         atomic.Uint64
	redirected      atomic.Uint64
	misrouted       atomic.Uint64
	fenceRejects    atomic.Uint64
	scatterRequests atomic.Uint64
	scatterFailures atomic.Uint64
	scatterPartials atomic.Uint64
	migrations      atomic.Uint64
	migrationsFail  atomic.Uint64
	dbsMigrated     atomic.Uint64
	adoptions       atomic.Uint64
}

// newRouter assembles the routing state: the map is restored from
// cfg.ShardmapPath when a valid shard-map frame exists there, otherwise built
// fresh (round-robin over this group plus every peer) and persisted.
func newRouter(cfg Config) (*router, error) {
	rt := &router{
		group:    cfg.Group,
		peers:    cfg.GroupPeers,
		redirect: cfg.RouterRedirect,
		doer:     cfg.RouterDoer,
		path:     cfg.ShardmapPath,
		fs:       cfg.FS,
		logf:     cfg.Logf,
		fenced:   make(map[int]bool),
	}
	if rt.doer == nil {
		rt.doer = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.BreakerThreshold >= 0 {
		// One breaker per peer host around every inter-group call — proxy,
		// scatter fan-out, migration ship, lost-ack probe — so a hung group
		// degrades its own path in O(1) instead of O(timeout) per request.
		rt.breakers = breaker.NewGroup(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)
		rt.doer = breaker.Wrap(rt.doer, rt.breakers)
	}
	var m *shardmap.Map
	if rt.path != "" {
		var err error
		m, err = shardmap.Load(rt.fs, rt.path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("server: loading shard map %s: %w", rt.path, err)
		}
	}
	if m == nil {
		groups := []string{cfg.Group}
		for g := range cfg.GroupPeers {
			groups = append(groups, g)
		}
		var err error
		m, err = shardmap.New(groups)
		if err != nil {
			return nil, fmt.Errorf("server: building shard map: %w", err)
		}
		if rt.path != "" {
			if err := shardmap.Save(rt.fs, rt.path, m); err != nil {
				return nil, fmt.Errorf("server: persisting shard map: %w", err)
			}
		}
	}
	if !m.HasGroup(cfg.Group) {
		return nil, fmt.Errorf("server: group %q not in shard map (groups %v)", cfg.Group, m.Groups())
	}
	rt.mapP.Store(m)
	return rt, nil
}

// multiGroup reports whether fleet-wide surfaces need scatter-gather.
func (rt *router) multiGroup() bool { return rt != nil && len(rt.peers) > 0 }

// adopt installs a strictly newer map and persists it. Older or
// same-version maps are ignored — version is the fencing order. adoptMu
// holds across the compare+store+persist sequence: with the persist outside
// the lock, two racing adoptions could let the OLDER map's on-disk rename
// land last, and a reboot would trust ownership this node already gave away.
func (rt *router) adopt(m *shardmap.Map) bool {
	rt.adoptMu.Lock()
	defer rt.adoptMu.Unlock()
	cur := rt.mapP.Load()
	if cur != nil && m.Version() <= cur.Version() {
		return false
	}
	rt.mapP.Store(m)
	rt.adoptions.Add(1)
	if rt.path != "" {
		if err := shardmap.Save(rt.fs, rt.path, m); err != nil {
			rt.logf("shardmap: persisting adopted v%d failed: %v", m.Version(), err)
		}
	}
	rt.logf("shardmap: adopted v%d", m.Version())
	return true
}

func (rt *router) fence(slot int) {
	rt.fenceMu.Lock()
	rt.fenced[slot] = true
	rt.fenceMu.Unlock()
}

func (rt *router) unfence(slot int) {
	rt.fenceMu.Lock()
	delete(rt.fenced, slot)
	rt.fenceMu.Unlock()
}

func (rt *router) isFenced(slot int) bool {
	rt.fenceMu.Lock()
	defer rt.fenceMu.Unlock()
	return rt.fenced[slot]
}

// routeDB resolves one per-database request through the shard map. It
// returns false when the request is local (the caller proceeds) and true
// when it was fully handled here: proxied, redirected, or refused. body is
// the already-read request body, replayed on proxy.
func (s *Server) routeDB(w http.ResponseWriter, r *http.Request, id int, body []byte, mutation bool) bool {
	rt := s.router
	if rt == nil {
		return false
	}
	m := rt.mapP.Load()
	w.Header().Set(HeaderShardGroup, rt.group)
	w.Header().Set(HeaderShardmapVersion, strconv.FormatUint(m.Version(), 10))
	slot := shardmap.SlotOf(id)
	// A request pinned to an older map version is stale routing: refuse it
	// and hand back the current map rather than guessing.
	if v := r.Header.Get(HeaderShardmapVersion); v != "" {
		if cv, err := strconv.ParseUint(v, 10, 64); err == nil && cv < m.Version() {
			rt.misrouted.Add(1)
			s.writeErr(w, &routeError{
				status: http.StatusMisdirectedRequest,
				owner:  m.Owner(slot), m: m,
				reason: fmt.Sprintf("stale shard map version %d (current %d)", cv, m.Version()),
			})
			return true
		}
	}
	if m.Owner(slot) == rt.group {
		if mutation && rt.isFenced(slot) {
			rt.fenceRejects.Add(1)
			s.writeErr(w, errSlotFenced)
			return true
		}
		rt.localRequests.Add(1)
		return false
	}
	// Another group owns the slot. A request that was already forwarded
	// once must not hop again: two maps disagree, fail fast with ours.
	if r.Header.Get(HeaderShardForwarded) != "" {
		rt.misrouted.Add(1)
		s.writeErr(w, &routeError{
			status: http.StatusMisdirectedRequest,
			owner:  m.Owner(slot), m: m,
			reason: fmt.Sprintf("group %q does not own database %d (slot %d)", rt.group, id, slot),
		})
		return true
	}
	return s.proxyOrRedirect(w, r, id, body, mutation)
}

// proxyOrRedirect forwards a remote-owned request. In redirect mode (or
// when the owner's address is unknown) the client is told where to go; in
// proxy mode the request is replayed against the owner, once adopting a
// newer map from a 421 reply and re-resolving (the new owner may be us).
func (s *Server) proxyOrRedirect(w http.ResponseWriter, r *http.Request, id int, body []byte, mutation bool) bool {
	rt := s.router
	for attempt := 0; attempt < 2; attempt++ {
		m := rt.mapP.Load()
		slot := shardmap.SlotOf(id)
		owner := m.Owner(slot)
		if owner == rt.group {
			// The adopted map moved the database to us after all.
			if mutation && rt.isFenced(slot) {
				rt.fenceRejects.Add(1)
				s.writeErr(w, errSlotFenced)
				return true
			}
			rt.localRequests.Add(1)
			return false
		}
		addr := rt.peers[owner]
		if rt.redirect || addr == "" {
			e := &routeError{
				status: http.StatusMisdirectedRequest,
				owner:  owner, m: m,
				reason: fmt.Sprintf("database %d (slot %d) is owned by group %q", id, slot, owner),
			}
			if addr != "" {
				e.status = http.StatusTemporaryRedirect
				e.location = addr + r.URL.RequestURI()
				rt.redirected.Add(1)
			} else {
				// No address for the owner: this is a routing dead end (421),
				// not a redirect — count it with the other misroutes.
				rt.misrouted.Add(1)
			}
			s.writeErr(w, e)
			return true
		}
		req, err := http.NewRequest(r.Method, addr+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			writeJSON(w, http.StatusBadGateway, errorJSON{Error: "proxy: " + err.Error()})
			return true
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderShardForwarded, rt.group)
		req.Header.Set(HeaderShardmapVersion, strconv.FormatUint(m.Version(), 10))
		resp, err := rt.doer.Do(req)
		if err != nil {
			if errors.Is(err, breaker.ErrOpen) {
				// The owner's circuit is open: degrade in O(1) with a
				// Retry-After derived from the cooldown, not a bare 502.
				s.writeErr(w, fmt.Errorf("proxy to group %q: %w", owner, err))
				return true
			}
			writeJSON(w, http.StatusBadGateway,
				errorJSON{Error: fmt.Sprintf("proxy to group %q: %v", owner, err)})
			return true
		}
		s.earnRetry()
		respBody, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			writeJSON(w, http.StatusBadGateway,
				errorJSON{Error: fmt.Sprintf("proxy to group %q: reading reply: %v", owner, rerr)})
			return true
		}
		if resp.StatusCode == http.StatusMisdirectedRequest && attempt == 0 {
			// The peer's map is newer than ours: adopt it and re-resolve —
			// but only while the retry budget has tokens. Under an outage a
			// fleet of proxies each doubling its requests is how overload
			// compounds; past the budget the client gets the 421 and retries
			// on its own schedule.
			if nm := mapFromErrorBody(respBody); nm != nil && rt.adopt(nm) && s.spendRetry() {
				continue
			}
		}
		rt.proxied.Add(1)
		for _, h := range []string{"Content-Type", HeaderShardGroup, HeaderShardmapVersion, "Retry-After"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(respBody)
		return true
	}
	writeJSON(w, http.StatusBadGateway, errorJSON{Error: "proxy: no route after map adoption"})
	return true
}

// mapFromErrorBody extracts the shard map from a routeError reply body.
func mapFromErrorBody(body []byte) *shardmap.Map {
	var e struct {
		ShardMap *shardmap.Map `json:"shard_map"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		return nil
	}
	return e.ShardMap
}

// handleShardMap serves the current map: JSON for humans and routing
// clients, the shard-map frame (?format=frame) for peers — reconcile and
// lost-ack probes must detect transport corruption, and the frame carries
// a checksum where JSON would not.
func (s *Server) handleShardMap(w http.ResponseWriter, r *http.Request) {
	rt := s.router
	if rt == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "server is not partitioned (no -group configured)"})
		return
	}
	m := rt.mapP.Load()
	if r.URL.Query().Get("format") == "frame" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(HeaderShardmapVersion, strconv.FormatUint(m.Version(), 10))
		w.Write(m.Encode())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"group":     rt.group,
		"role":      s.node.Role().String(),
		"shard_map": m,
	})
}

// handleShardReconcile pulls every peer's map, adopts the newest, and (on a
// write-accepting node) sweeps out databases the adopted map assigns
// elsewhere. Recovers the lost-ack migration corner: a destination that
// durably adopted a new map before its ack was lost re-publishes it here.
func (s *Server) handleShardReconcile(w http.ResponseWriter, r *http.Request) {
	rt := s.router
	if rt == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "server is not partitioned (no -group configured)"})
		return
	}
	before := rt.mapP.Load().Version()
	unreachable := 0
	for g, addr := range rt.peers {
		m, err := s.fetchGroupMap(addr)
		if err != nil {
			unreachable++
			rt.logf("reconcile: fetching %q map: %v", g, err)
			continue
		}
		rt.adopt(m)
	}
	dropped := 0
	if s.node.CanAcceptWrites() {
		// migrateMu makes the sweep atomic with an in-flight adoption: the
		// adopt handler restores a slot's databases BEFORE swapping the map
		// in, so an unsynchronized sweep here could read the old map and
		// journal-delete the freshly restored databases — then the adopt
		// acks, the source deletes its copies, and the slot is simply gone.
		s.migrateMu.Lock()
		dropped = s.sweepDisowned()
		s.migrateMu.Unlock()
	}
	cur := rt.mapP.Load().Version()
	writeJSON(w, http.StatusOK, map[string]any{
		"version":           cur,
		"changed":           cur != before,
		"dropped":           dropped,
		"peers_unreachable": unreachable,
	})
}

// fetchGroupMap retrieves a peer's map as a frame; the CRC catches
// response-body corruption that a JSON parse could let through.
func (s *Server) fetchGroupMap(addr string) (*shardmap.Map, error) {
	req, err := http.NewRequest(http.MethodGet, addr+"/v1/shard/map?format=frame", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.router.doer.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	return shardmap.Decode(b)
}

// sweepDisowned deletes (journaled) every local database the current map
// assigns to another group: the tail end of a migration cutover, and the
// boot-time cleanup after a crash that interrupted one.
func (s *Server) sweepDisowned() int {
	rt := s.router
	m := rt.mapP.Load()
	dropped := 0
	for _, id := range s.Fleet().IDs() {
		if m.OwnerOf(id) == rt.group {
			continue
		}
		s.walGate.RLock()
		_, err := s.journalize(wal.RecordDelete, id, s.now())
		if err == nil {
			err = s.Fleet().Delete(id)
		}
		s.walGate.RUnlock()
		if err != nil {
			rt.logf("sweep: dropping disowned database %d: %v", id, err)
			continue
		}
		s.wakes.schedule(id, time.Time{})
		dropped++
	}
	if dropped > 0 {
		rt.logf("sweep: dropped %d databases now owned elsewhere (map v%d)", dropped, m.Version())
	}
	return dropped
}

// ownedSlotsSorted is a small helper for /healthz and metrics.
func (rt *router) ownedSlotCount() int {
	return len(rt.mapP.Load().OwnedSlots(rt.group))
}

// peerGroupsSorted returns the peer group names, sorted, for deterministic
// scatter accounting.
func (rt *router) peerGroupsSorted() []string {
	gs := make([]string, 0, len(rt.peers))
	for g := range rt.peers {
		gs = append(gs, g)
	}
	sort.Strings(gs)
	return gs
}
