package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"prorp/internal/frame"
	"prorp/internal/shardmap"
)

// newGroupCluster boots n single-primary groups named g1..gN, wired
// through one in-process mapDoer: each group's peers point at the others
// by host name. mutate, when non-nil, adjusts each group's Config before
// boot (snapshots, redirect mode, a wrapped transport). Pass net so a test
// can wrap it (fault injection, hanging peers) for individual groups.
func newGroupCluster(t *testing.T, clock interface{ Now() time.Time }, n int, net *mapDoer, mutate func(g string, cfg *Config)) map[string]*Server {
	t.Helper()
	groups := make([]string, n)
	for i := range groups {
		groups[i] = fmt.Sprintf("g%d", i+1)
	}
	srvs := make(map[string]*Server, n)
	for _, g := range groups {
		peers := make(map[string]string)
		for _, o := range groups {
			if o != g {
				peers[o] = "http://" + o
			}
		}
		cfg := Config{
			Options:    testOptions(),
			Shards:     4,
			Group:      g,
			GroupPeers: peers,
			RouterDoer: net,
			Now:        clock.Now,
			Sleep:      noSleep,
			Logf:       t.Logf,
		}
		if mutate != nil {
			mutate(g, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("boot group %s: %v", g, err)
		}
		t.Cleanup(func() { srv.Close() })
		net.bind(g, srv)
		srvs[g] = srv
	}
	return srvs
}

// idsOwnedBy returns the first n database ids (counting up from `from`)
// whose slots the map assigns to group g.
func idsOwnedBy(t *testing.T, m *shardmap.Map, g string, n, from int) []int {
	t.Helper()
	var ids []int
	for id := from; len(ids) < n && id < from+100000; id++ {
		if m.OwnerOf(id) == g {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("found only %d ids owned by %s", len(ids), g)
	}
	return ids
}

// TestRouterProxyServesRemoteOwned covers the proxy path: every
// per-database verb sent to the wrong group lands on the owner and the
// reply comes back through the proxying group, tagged with the serving
// group's identity.
func TestRouterProxyServesRemoteOwned(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, nil)
	g1, g2 := srvs["g1"], srvs["g2"]
	m := g1.router.mapP.Load()

	local := idsOwnedBy(t, m, "g1", 1, 1)[0]
	remote := idsOwnedBy(t, m, "g2", 1, 1)[0]

	// Local create is served here, not proxied.
	code, out := call(t, g1, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, local))
	wantStatus(t, code, http.StatusCreated, out)

	// Remote create through g1 must land on g2.
	req := httptest.NewRequest("POST", "/v1/db", strings.NewReader(fmt.Sprintf(`{"id":%d}`, remote)))
	rec := httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("proxied create = %d (%s)", rec.Code, rec.Body.String())
	}
	if g := rec.Header().Get(HeaderShardGroup); g != "g2" {
		t.Fatalf("proxied create %s = %q, want g2", HeaderShardGroup, g)
	}
	if _, err := g2.Fleet().State(remote); err != nil {
		t.Fatalf("proxied create did not land on owner: %v", err)
	}
	if _, err := g1.Fleet().State(remote); err == nil {
		t.Fatalf("proxied create also landed on the proxying group")
	}

	// Events and reads route the same way.
	code, out = call(t, g1, "POST", fmt.Sprintf("/v1/db/%d/logout", remote), "")
	wantStatus(t, code, http.StatusOK, out)
	code, out = call(t, g1, "GET", fmt.Sprintf("/v1/db/%d", remote), "")
	wantStatus(t, code, http.StatusOK, out)
	if out["state"] != "logically-paused" {
		t.Fatalf("proxied read state = %v", out["state"])
	}
	code, out = call(t, g1, "DELETE", fmt.Sprintf("/v1/db/%d", remote), "")
	wantStatus(t, code, http.StatusOK, out)
	if _, err := g2.Fleet().State(remote); err == nil {
		t.Fatalf("proxied delete did not reach the owner")
	}

	// Traffic split is visible on /metrics of both sides.
	s1 := scrape(t, g1)
	if v := sampleValue(t, s1, "prorp_router_proxied_total", nil); v < 4 {
		t.Fatalf("g1 proxied_total = %v, want >= 4", v)
	}
	if v := sampleValue(t, s1, "prorp_router_local_requests_total", nil); v < 1 {
		t.Fatalf("g1 local_requests_total = %v, want >= 1", v)
	}
	s2 := scrape(t, g2)
	if v := sampleValue(t, s2, "prorp_router_local_requests_total", nil); v < 4 {
		t.Fatalf("g2 local_requests_total = %v, want >= 4", v)
	}
	if v := sampleValue(t, s1, "prorp_shardmap_version", nil); v != 1 {
		t.Fatalf("shardmap_version gauge = %v, want 1", v)
	}
}

// TestRouterRedirectMode covers -route-redirect: remote-owned requests are
// bounced with 307 + Location instead of proxied.
func TestRouterRedirectMode(t *testing.T) {
	clock := &fakeClock{t: t0}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, func(g string, cfg *Config) {
		cfg.RouterRedirect = true
	})
	g1 := srvs["g1"]
	m := g1.router.mapP.Load()
	remote := idsOwnedBy(t, m, "g2", 1, 1)[0]

	req := httptest.NewRequest("POST", fmt.Sprintf("/v1/db/%d/login", remote), nil)
	rec := httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusTemporaryRedirect {
		t.Fatalf("redirect-mode remote request = %d, want 307", rec.Code)
	}
	wantLoc := fmt.Sprintf("http://g2/v1/db/%d/login", remote)
	if loc := rec.Header().Get("Location"); loc != wantLoc {
		t.Fatalf("Location = %q, want %q", loc, wantLoc)
	}
	if g := rec.Header().Get(HeaderShardGroup); g != "g2" {
		t.Fatalf("%s = %q, want g2", HeaderShardGroup, g)
	}
	// The 307 body carries the map, so the client can fix its table.
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"shard_map"`)) {
		t.Fatalf("redirect body lacks shard_map: %s", rec.Body.String())
	}
	if v := sampleValue(t, scrape(t, g1), "prorp_router_redirected_total", nil); v != 1 {
		t.Fatalf("redirected_total = %v, want 1", v)
	}
}

// TestRouterStaleVersionAndForwardLoop covers the two misrouting refusals:
// a request pinned to an older map version, and a request that already hopped
// once and would hop again (two groups disagreeing about ownership).
func TestRouterStaleVersionAndForwardLoop(t *testing.T) {
	clock := &fakeClock{t: t0}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, nil)
	g1 := srvs["g1"]
	m := g1.router.mapP.Load()
	local := idsOwnedBy(t, m, "g1", 1, 1)[0]
	remote := idsOwnedBy(t, m, "g2", 1, 1)[0]

	// Stale version: the client claims v0, the server runs v1.
	req := httptest.NewRequest("POST", fmt.Sprintf("/v1/db/%d/login", local), nil)
	req.Header.Set(HeaderShardmapVersion, "0")
	rec := httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("stale-version request = %d, want 421 (%s)", rec.Code, rec.Body.String())
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"version":1`)) {
		t.Fatalf("421 body lacks current map: %s", rec.Body.String())
	}

	// Matching version passes.
	req = httptest.NewRequest("POST", fmt.Sprintf("/v1/db/%d", local), strings.NewReader(fmt.Sprintf(`{"id":%d}`, local)))
	req = httptest.NewRequest("POST", "/v1/db", strings.NewReader(fmt.Sprintf(`{"id":%d}`, local)))
	req.Header.Set(HeaderShardmapVersion, "1")
	rec = httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("current-version create = %d (%s)", rec.Code, rec.Body.String())
	}

	// Forwarded loop: a request that claims it was already proxied must not
	// hop again even though another group owns it.
	req = httptest.NewRequest("GET", fmt.Sprintf("/v1/db/%d", remote), nil)
	req.Header.Set(HeaderShardForwarded, "g9")
	rec = httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("forwarded loop = %d, want 421", rec.Code)
	}
	if v := sampleValue(t, scrape(t, g1), "prorp_router_misrouted_total", nil); v != 2 {
		t.Fatalf("misrouted_total = %v, want 2", v)
	}
}

// TestRouterFenceRejectsWrites covers the migration write fence: mutations
// on a fenced slot get 503 + Retry-After, reads keep serving, and the
// fence lifts cleanly.
func TestRouterFenceRejectsWrites(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, nil)
	g1 := srvs["g1"]
	m := g1.router.mapP.Load()
	id := idsOwnedBy(t, m, "g1", 1, 1)[0]
	code, out := call(t, g1, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
	wantStatus(t, code, http.StatusCreated, out)

	g1.router.fence(shardmap.SlotOf(id))
	req := httptest.NewRequest("POST", fmt.Sprintf("/v1/db/%d/login", id), nil)
	rec := httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fenced write = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatalf("fenced write has no Retry-After")
	}
	// Reads are not fenced.
	code, out = call(t, g1, "GET", fmt.Sprintf("/v1/db/%d", id), "")
	wantStatus(t, code, http.StatusOK, out)

	g1.router.unfence(shardmap.SlotOf(id))
	code, out = call(t, g1, "POST", fmt.Sprintf("/v1/db/%d/login", id), "")
	wantStatus(t, code, http.StatusOK, out)
	if v := sampleValue(t, scrape(t, g1), "prorp_router_fence_rejects_total", nil); v != 1 {
		t.Fatalf("fence_rejects_total = %v, want 1", v)
	}
}

// TestRouterHealthzAndMapEndpoint covers the partitioned /healthz fields
// and both renderings of GET /v1/shard/map.
func TestRouterHealthzAndMapEndpoint(t *testing.T) {
	clock := &fakeClock{t: t0}
	srvs := newGroupCluster(t, clock, 3, &mapDoer{}, nil)

	ownedTotal := 0
	for g, srv := range srvs {
		code, out := call(t, srv, "GET", "/healthz", "")
		wantStatus(t, code, http.StatusOK, out)
		if out["group"] != g {
			t.Fatalf("healthz group = %v, want %s", out["group"], g)
		}
		if out["shardmap_version"] != float64(1) {
			t.Fatalf("healthz shardmap_version = %v, want 1", out["shardmap_version"])
		}
		ownedTotal += int(out["owned_slots"].(float64))
	}
	if ownedTotal != shardmap.NumSlots {
		t.Fatalf("owned_slots across groups = %d, want %d", ownedTotal, shardmap.NumSlots)
	}

	g1 := srvs["g1"]
	code, out := call(t, g1, "GET", "/v1/shard/map", "")
	wantStatus(t, code, http.StatusOK, out)
	if out["group"] != "g1" || out["role"] != "primary" {
		t.Fatalf("shard map envelope = %v", out)
	}
	sm := out["shard_map"].(map[string]any)
	if sm["version"] != float64(1) {
		t.Fatalf("shard map version = %v", sm["version"])
	}

	// The frame rendering round-trips through Decode and matches.
	req := httptest.NewRequest("GET", "/v1/shard/map?format=frame", nil)
	rec := httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("framed map fetch = %d", rec.Code)
	}
	dm, err := shardmap.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("framed map does not decode: %v", err)
	}
	if !dm.Equal(g1.router.mapP.Load()) {
		t.Fatalf("framed map differs from the live map")
	}

	// A single-group server has no shard surface.
	solo, err := New(Config{Options: testOptions(), Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	code, out = call(t, solo, "GET", "/v1/shard/map", "")
	wantStatus(t, code, http.StatusNotFound, out)
	code, out = call(t, solo, "GET", "/healthz", "")
	wantStatus(t, code, http.StatusOK, out)
	if _, has := out["group"]; has {
		t.Fatalf("single-group healthz leaked a group field: %v", out)
	}
}

// TestShardMigrateMovesSlot is the migration happy path: a slot's
// databases move to the destination byte-identically (history and all),
// both groups converge on the bumped map, requests for the moved
// databases re-route, and the endpoint's refusals hold.
func TestShardMigrateMovesSlot(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, func(g string, cfg *Config) {
		dir := t.TempDir()
		cfg.SnapshotPath = filepath.Join(dir, "fleet.snap")
		cfg.WALDir = filepath.Join(dir, "wal")
		cfg.ShardmapPath = filepath.Join(dir, "shard.map")
	})
	g1, g2 := srvs["g1"], srvs["g2"]
	m := g1.router.mapP.Load()

	// Pick a g1 slot and populate it with a few databases plus history.
	ids := idsOwnedBy(t, m, "g1", 3, 1)
	slot := shardmap.SlotOf(ids[0])
	var moving []int
	for _, id := range ids {
		if shardmap.SlotOf(id) == slot {
			moving = append(moving, id)
		}
	}
	other := idsOwnedBy(t, m, "g1", 10, moving[len(moving)-1]+1)
	stay := -1
	for _, id := range other {
		if shardmap.SlotOf(id) != slot {
			stay = id
			break
		}
	}
	if stay < 0 {
		t.Fatal("no g1 id outside the migrating slot")
	}
	for _, id := range append(append([]int{}, moving...), stay) {
		code, out := call(t, g1, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
		code, out = call(t, g1, "POST", fmt.Sprintf("/v1/db/%d/logout", id), "")
		wantStatus(t, code, http.StatusOK, out)
	}

	// Archive each moving database before the move: the byte-equality oracle.
	want := make(map[int][]byte, len(moving))
	for _, id := range moving {
		var buf bytes.Buffer
		if err := g1.Fleet().Snapshot(id, &buf); err != nil {
			t.Fatal(err)
		}
		want[id] = buf.Bytes()
	}

	code, out := call(t, g1, "POST", "/v1/shard/migrate", fmt.Sprintf(`{"slot":%d,"to":"g2"}`, slot))
	wantStatus(t, code, http.StatusOK, out)
	if int(out["databases"].(float64)) != len(moving) {
		t.Fatalf("migrated %v databases, want %d", out["databases"], len(moving))
	}
	if out["version"] != float64(2) {
		t.Fatalf("post-migration version = %v, want 2", out["version"])
	}

	// Both groups converge on the bumped map; only the destination owns.
	for g, srv := range srvs {
		dm := srv.router.mapP.Load()
		if dm.Version() != 2 || dm.Owner(slot) != "g2" {
			t.Fatalf("%s map: v%d owner %q, want v2 g2", g, dm.Version(), dm.Owner(slot))
		}
	}
	for _, id := range moving {
		if _, err := g1.Fleet().State(id); err == nil {
			t.Fatalf("database %d still on the source after migration", id)
		}
		var buf bytes.Buffer
		if err := g2.Fleet().Snapshot(id, &buf); err != nil {
			t.Fatalf("database %d missing on the destination: %v", id, err)
		}
		if !bytes.Equal(buf.Bytes(), want[id]) {
			t.Fatalf("database %d archive differs after migration", id)
		}
	}
	// The untouched slot stayed put.
	if _, err := g1.Fleet().State(stay); err != nil {
		t.Fatalf("database %d outside the slot was disturbed: %v", stay, err)
	}

	// Requests for moved databases re-route: through g1 they now proxy.
	code, out = call(t, g1, "POST", fmt.Sprintf("/v1/db/%d/login", moving[0]), "")
	wantStatus(t, code, http.StatusOK, out)
	if _, err := g2.Fleet().State(moving[0]); err != nil {
		t.Fatal(err)
	}

	// Idempotent retry: the slot already lives at the destination.
	code, out = call(t, g1, "POST", "/v1/shard/migrate", fmt.Sprintf(`{"slot":%d,"to":"g2"}`, slot))
	wantStatus(t, code, http.StatusOK, out)
	if out["noop"] != true {
		t.Fatalf("repeat migrate = %v, want noop", out)
	}

	// Refusals: out-of-range slot, unknown group, not-the-owner.
	code, out = call(t, g1, "POST", "/v1/shard/migrate", `{"slot":9999,"to":"g2"}`)
	wantStatus(t, code, http.StatusBadRequest, out)
	code, out = call(t, g1, "POST", "/v1/shard/migrate", fmt.Sprintf(`{"slot":%d,"to":"nope"}`, slot))
	wantStatus(t, code, http.StatusBadRequest, out)
	code, out = call(t, g1, "POST", "/v1/shard/migrate", fmt.Sprintf(`{"slot":%d,"to":"g1"}`, slot))
	wantStatus(t, code, http.StatusConflict, out)

	if v := sampleValue(t, scrape(t, g1), "prorp_shard_migrations_total", nil); v != 1 {
		t.Fatalf("migrations_total = %v, want 1", v)
	}
	if v := sampleValue(t, scrape(t, g1), "prorp_shard_dbs_migrated_total", nil); v != float64(len(moving)) {
		t.Fatalf("dbs_migrated_total = %v, want %d", v, len(moving))
	}

	// The bumped map survives a reboot: a fresh g1 server boots from its
	// persisted shard-map file, still at v2 with the slot owned elsewhere.
	g1cfg := g1.cfg
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	g1b, err := New(g1cfg)
	if err != nil {
		t.Fatalf("reboot source: %v", err)
	}
	defer g1b.Close()
	if dm := g1b.router.mapP.Load(); dm.Version() != 2 || dm.Owner(slot) != "g2" {
		t.Fatalf("rebooted map: v%d owner %q, want v2 g2", dm.Version(), dm.Owner(slot))
	}
}

// TestShardMigrateRefusedByWALOnlyDestination pins the durability guard on
// the destination side: a node that persists through a WAL only (no
// snapshot store) cannot make an adopted slot durable — journal records
// carry no archive payload — so it refuses the transfer structurally and
// the source aborts with its data and map intact.
func TestShardMigrateRefusedByWALOnlyDestination(t *testing.T) {
	clock := &fakeClock{t: t0.Add(9 * time.Hour)}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, func(g string, cfg *Config) {
		if g == "g2" {
			cfg.WALDir = filepath.Join(t.TempDir(), "wal") // journal, no snapshot
		}
	})
	g1, g2 := srvs["g1"], srvs["g2"]
	m := g1.router.mapP.Load()
	id := idsOwnedBy(t, m, "g1", 1, 1)[0]
	slot := shardmap.SlotOf(id)
	code, out := call(t, g1, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
	wantStatus(t, code, http.StatusCreated, out)

	code, out = call(t, g1, "POST", "/v1/shard/migrate", fmt.Sprintf(`{"slot":%d,"to":"g2"}`, slot))
	wantStatus(t, code, http.StatusBadGateway, out)
	if e, _ := out["error"].(string); !strings.Contains(e, "WAL only") {
		t.Fatalf("refusal error = %q, want the WAL-only explanation", e)
	}
	// Nothing moved: the source still owns the slot at the original map
	// version and still serves the database; the destination restored nothing.
	if dm := g1.router.mapP.Load(); dm.Version() != 1 || dm.Owner(slot) != "g1" {
		t.Fatalf("source map after refusal: v%d owner %q, want v1 g1", dm.Version(), dm.Owner(slot))
	}
	if _, err := g1.Fleet().State(id); err != nil {
		t.Fatalf("database %d lost on the source after a refused migration: %v", id, err)
	}
	if _, err := g2.Fleet().State(id); err == nil {
		t.Fatalf("database %d restored on the WAL-only destination", id)
	}
	if v := sampleValue(t, scrape(t, g1), "prorp_shard_migration_failures_total", nil); v != 1 {
		t.Fatalf("migration_failures_total = %v, want 1", v)
	}
}

// TestRouterUnknownOwnerAddressCountsMisrouted pins the counter partition
// on the no-address dead end: a remote-owned request whose owning group has
// no peer address is a 421 refusal, counted with the misroutes —
// redirected stays reserved for genuine 307s.
func TestRouterUnknownOwnerAddressCountsMisrouted(t *testing.T) {
	clock := &fakeClock{t: t0}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, nil)
	g1 := srvs["g1"]
	m := g1.router.mapP.Load()
	remote := idsOwnedBy(t, m, "g2", 1, 1)[0]
	delete(g1.router.peers, "g2") // the map knows the owner, the address book does not

	req := httptest.NewRequest("POST", fmt.Sprintf("/v1/db/%d/login", remote), nil)
	rec := httptest.NewRecorder()
	g1.ServeHTTP(rec, req)
	if rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("no-address request = %d, want 421", rec.Code)
	}
	samples := scrape(t, g1)
	if v := sampleValue(t, samples, "prorp_router_misrouted_total", nil); v != 1 {
		t.Fatalf("misrouted_total = %v, want 1", v)
	}
	if v := sampleValue(t, samples, "prorp_router_redirected_total", nil); v != 0 {
		t.Fatalf("redirected_total = %v, want 0", v)
	}
}

// TestRouterProxyAdoptsNewerMap covers the retry-once corner of the proxy
// path: the peer holds a newer map under which the database came *back* to
// the proxying group. The 421 reply carries the newer map; the proxy
// adopts it, re-resolves, and serves locally — one client round trip.
func TestRouterProxyAdoptsNewerMap(t *testing.T) {
	clock := &fakeClock{t: t0}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, nil)
	g1, g2 := srvs["g1"], srvs["g2"]
	m := g1.router.mapP.Load()
	id := idsOwnedBy(t, m, "g2", 1, 1)[0]
	slot := shardmap.SlotOf(id)
	m2, err := m.WithOwner(slot, "g1")
	if err != nil {
		t.Fatal(err)
	}
	if !g2.router.adopt(m2) {
		t.Fatal("g2 refused the strictly newer map")
	}

	// g1 still routes by v1 and proxies to g2; g2 refuses the stale version
	// with 421 + its v2 map; g1 adopts it and finds the database local.
	code, out := call(t, g1, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
	wantStatus(t, code, http.StatusCreated, out)
	if v := g1.router.mapP.Load().Version(); v != 2 {
		t.Fatalf("g1 map version after adopt = %d, want 2", v)
	}
	if _, err := g1.Fleet().State(id); err != nil {
		t.Fatalf("database %d not created locally after adopt: %v", id, err)
	}
	if _, err := g2.Fleet().State(id); err == nil {
		t.Fatalf("database %d also created on g2", id)
	}
	samples := scrape(t, g1)
	if v := sampleValue(t, samples, "prorp_shardmap_adoptions_total", nil); v != 1 {
		t.Fatalf("adoptions_total = %v, want 1", v)
	}
}

// TestRouteErrorHelpers pins the routeError message and the shard-map
// extraction from a 421 reply body.
func TestRouteErrorHelpers(t *testing.T) {
	e := &routeError{status: http.StatusMisdirectedRequest, reason: "stale shard map"}
	if e.Error() != "stale shard map" {
		t.Fatalf("routeError.Error() = %q", e.Error())
	}
	if m := mapFromErrorBody([]byte("not json")); m != nil {
		t.Fatalf("mapFromErrorBody(garbage) = %v", m)
	}
	if m := mapFromErrorBody([]byte(`{"error":"x"}`)); m != nil {
		t.Fatalf("mapFromErrorBody(no map) = %v", m)
	}
	want, err := shardmap.New([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeErr(rec, &routeError{status: http.StatusMisdirectedRequest, owner: "b",
		m: want, reason: "misrouted"})
	got := mapFromErrorBody(rec.Body.Bytes())
	if got == nil || !got.Equal(want) {
		t.Fatalf("mapFromErrorBody(writeErr body) = %v, want %v", got, want)
	}
}

// TestShardAdoptVerdicts pins the destination-side verdicts of the
// migration protocol outside the happy path: structurally bad transfers,
// transfers naming another group, duplicate adopts after a lost ack, and
// transfers that lost the version race.
func TestShardAdoptVerdicts(t *testing.T) {
	clock := &fakeClock{t: t0}
	srvs := newGroupCluster(t, clock, 2, &mapDoer{}, nil)
	g2 := srvs["g2"]
	base := g2.router.mapP.Load()

	adopt := func(payload []byte) (int, string) {
		rec := httptest.NewRecorder()
		g2.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/shard/adopt", bytes.NewReader(payload)))
		return rec.Code, rec.Body.String()
	}

	// Garbage and a wrong-group assignment are refused before any state
	// changes.
	if code, body := adopt([]byte("junk")); code != http.StatusBadRequest {
		t.Fatalf("garbage transfer = %d (%s)", code, body)
	}
	g1Slot := g2.router.mapP.Load().OwnedSlots("g1")[0]
	toG1, err := base.WithOwner(g1Slot, "g1") // still g1's: not ours to adopt
	if err != nil {
		t.Fatal(err)
	}
	if code, body := adopt(encodeTransfer(g1Slot, toG1, nil)); code != http.StatusBadRequest {
		t.Fatalf("wrong-group transfer = %d (%s)", code, body)
	}

	// An empty transfer with a strictly newer map adopts cleanly.
	slot := base.OwnedSlots("g1")[1]
	v2, err := base.WithOwner(slot, "g2")
	if err != nil {
		t.Fatal(err)
	}
	code, body := adopt(encodeTransfer(slot, v2, nil))
	if code != http.StatusOK || !strings.Contains(body, `"adopted":true`) {
		t.Fatalf("clean adopt = %d (%s)", code, body)
	}

	// The same transfer again is the lost-ack retry: acknowledged
	// idempotently, nothing re-adopted.
	code, body = adopt(encodeTransfer(slot, v2, nil))
	if code != http.StatusOK || !strings.Contains(body, `"adopted":false`) {
		t.Fatalf("duplicate adopt = %d (%s)", code, body)
	}

	// A transfer whose map lost the version race — the slot has since moved
	// back to g1 under a newer map — conflicts instead of regressing.
	v3, err := v2.WithOwner(slot, "g1")
	if err != nil {
		t.Fatal(err)
	}
	if !g2.router.adopt(v3) {
		t.Fatal("g2 refused v3")
	}
	if code, body = adopt(encodeTransfer(slot, v2, nil)); code != http.StatusConflict {
		t.Fatalf("stale transfer = %d (%s)", code, body)
	}
}

// TestDecodeTransferRejectsDamage walks decodeTransfer's structural checks.
func TestDecodeTransferRejectsDamage(t *testing.T) {
	m, err := shardmap.New([]string{"g1", "g2"})
	if err != nil {
		t.Fatal(err)
	}
	slot := m.OwnedSlots("g2")[0]
	good := encodeTransfer(slot, m, nil)
	body := good[frame.HeaderSize:]
	reseal := func(b []byte) []byte {
		return frame.Seal(frame.KindTransfer, append(make([]byte, frame.HeaderSize), b...))
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1

	cases := []struct {
		name string
		b    []byte
	}{
		{"short", good[:6]},
		{"bad magic", append([]byte{9, 9, 9, 9}, good[4:]...)},
		{"bad checksum", flipped},
		{"trailing bytes", append(bytes.Clone(good), 1, 2, 3)},
		{"slot out of range", encodeTransfer(shardmap.NumSlots, m, nil)},
		{"truncated map", reseal(body[:len(body)-8])},
		{"trailing body bytes", reseal(append(bytes.Clone(body), 1, 2, 3))},
	}
	for _, tc := range cases {
		if _, _, _, err := decodeTransfer(tc.b); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// An entry whose id does not hash to the transfer's slot is refused —
	// that is the guard against a mis-addressed archive landing somewhere
	// the map will never route reads to.
	otherID := 1
	for ; shardmap.SlotOf(otherID) == slot; otherID++ {
	}
	wrong := encodeTransfer(slot, m, []transferEntry{{id: int64(otherID)}})
	if _, _, _, err := decodeTransfer(wrong); err == nil || !strings.Contains(err.Error(), "does not hash") {
		t.Fatalf("mis-addressed entry err = %v", err)
	}
}

// TestDecodeTransferRejectsHugeCount feeds a well-formed transfer frame
// whose count promises a million entries it does not hold: the count must
// be refused before it sizes any allocation.
func TestDecodeTransferRejectsHugeCount(t *testing.T) {
	m, err := shardmap.New([]string{"g1", "g2"})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Clone(encodeTransfer(0, m, nil)[frame.HeaderSize:])
	binary.LittleEndian.PutUint32(body[len(body)-4:], 1<<20)
	huge := frame.Seal(frame.KindTransfer, append(make([]byte, frame.HeaderSize), body...))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = decodeTransfer(huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("transfer with an impossible count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("decoding allocated %d bytes for a transfer of %d", grew, len(huge))
	}
}
