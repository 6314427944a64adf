package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prorp/internal/faults"
	"prorp/internal/shardmap"
	"prorp/internal/wal"
)

// migrateChaosDoer sits between the shard router and the in-process
// network and injects one crash at a chosen point of the migration
// protocol, keyed on the /v1/shard/adopt transfer:
//
//	mode 1: kill the source before the transfer is delivered
//	mode 2: kill the destination before the transfer is delivered
//	mode 3: deliver the transfer, then drop the ack (and every retry) —
//	        the lost-ack corner the map probe has to recover
//	mode 4: deliver the transfer, then kill the source before cutover
//
// Everything else flows through the flaky FaultDoer transport. Modes 3
// and 4 deliver through the raw network so the destination's durable
// adopt is guaranteed, not subject to a random partition.
type migrateChaosDoer struct {
	flaky  faults.Doer
	direct faults.Doer

	mu         sync.Mutex
	mode       int
	trigger    int // fire on the Nth adopt request seen
	armed      bool
	dropAdopts bool
	adoptSeen  int
	killSource func()
	killDest   func()
}

func (d *migrateChaosDoer) disarm() {
	d.mu.Lock()
	d.armed, d.dropAdopts = false, false
	d.mu.Unlock()
}

func (d *migrateChaosDoer) Do(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/shard/adopt" {
		d.mu.Lock()
		if d.dropAdopts {
			d.mu.Unlock()
			return nil, fmt.Errorf("chaos: ack dropped")
		}
		if d.armed {
			d.adoptSeen++
			if d.adoptSeen >= d.trigger {
				mode := d.mode
				d.armed = false
				switch mode {
				case 1:
					d.mu.Unlock()
					d.killSource()
					return nil, fmt.Errorf("chaos: source crashed before ship")
				case 2:
					d.mu.Unlock()
					d.killDest()
					return nil, fmt.Errorf("chaos: destination crashed before ship")
				case 3:
					d.dropAdopts = true
					d.mu.Unlock()
					d.direct.Do(req)                             // durable adopt lands...
					return nil, fmt.Errorf("chaos: ack dropped") // ...its ack does not
				case 4:
					d.mu.Unlock()
					resp, err := d.direct.Do(req)
					d.killSource()
					return resp, err
				}
			}
		}
		d.mu.Unlock()
	}
	return d.flaky.Do(req)
}

// migrateChaosConfig builds one group's fully durable Config: snapshots,
// journal, persisted shard map, tight retry budget, stepped fake clock.
func migrateChaosConfig(t *testing.T, dir, g string, peers map[string]string, clock *stepClock, doer faults.Doer, inj *faults.Injector) Config {
	return Config{
		Options:         testOptions(),
		Shards:          4,
		SnapshotPath:    filepath.Join(dir, "fleet.snap"),
		SnapshotEvery:   time.Hour,
		WALDir:          filepath.Join(dir, "wal"),
		WALFsync:        wal.FsyncAlways,
		WALSegmentBytes: 2048,
		Group:           g,
		GroupPeers:      peers,
		ShardmapPath:    filepath.Join(dir, "shard.map"),
		RouterDoer:      doer,
		// This harness heals the transport instantly and expects the very
		// next call to succeed; a breaker's cooldown memory would refuse it.
		// Breaker recovery under faults is TestChaosOverload's job.
		BreakerThreshold: -1,
		Now:              clock.Now,
		Sleep:            noSleep,
		Backoff: faults.Backoff{Attempts: 4, Base: time.Millisecond,
			Max: 4 * time.Millisecond, Factor: 2, Rand: inj.Rand()},
		Logf: t.Logf,
	}
}

// TestChaosShardMigration is the partitioning acceptance gate: 50 seeded
// iterations of a two-group control plane whose migration transport
// misbehaves (partitions, corrupted and truncated response bodies) and
// whose source or destination primary is killed at a random point of the
// cutover protocol. Invariants, every iteration:
//
//   - Zero acked-write loss: every event acknowledged before the
//     migration exists afterwards, on whichever group finally owns it.
//   - Single ownership: after reboot + reconcile (+ a clean retry when
//     the move never committed), both groups agree on one map, and every
//     database exists on exactly its owner — never on both, never on
//     neither.
//   - Byte-identical archives: a migrated database's archive on the
//     final owner equals the pre-migration archive on the source.
//
// Runs under -race in CI (make shard-chaos).
func TestChaosShardMigration(t *testing.T) {
	eachChaosSeed(t, chaosShardMigration)
}

func chaosShardMigration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	inj := faults.NewInjector(seed)
	clock := &stepClock{t: t0}
	net := &mapDoer{}
	flaky := faults.NewFaultDoer(net, inj, funcClock{now: clock.Now, sleep: noSleep})
	kd := &migrateChaosDoer{
		flaky:   flaky,
		direct:  net,
		mode:    int(seed % 5), // 0 = no kill, just the flaky transport
		trigger: 1 + rng.Intn(2),
		armed:   seed%5 != 0,
	}

	dirs := map[string]string{"g1": t.TempDir(), "g2": t.TempDir()}
	peersOf := map[string]map[string]string{
		"g1": {"g2": "http://g2"},
		"g2": {"g1": "http://g1"},
	}
	cur := map[string]*Server{}
	boot := func(g string) *Server {
		srv, err := New(migrateChaosConfig(t, dirs[g], g, peersOf[g], clock, kd, inj))
		if err != nil {
			t.Fatalf("boot %s: %v", g, err)
		}
		t.Cleanup(func() { srv.Close() })
		net.bind(g, srv)
		cur[g] = srv
		return srv
	}
	g1, g2 := boot("g1"), boot("g2")
	kd.killSource = func() { net.bind("g1", nil); g1.Kill() }
	kd.killDest = func() { net.bind("g2", nil); g2.Kill() }
	m := g1.router.mapP.Load()

	// Population: a g1-owned slot with a couple of databases (the migrating
	// set), plus bystanders on both groups. All traffic is owner-direct.
	var movingIDs []int
	slot := -1
	for id := 1; len(movingIDs) < 2+rng.Intn(2); id++ {
		if slot < 0 && m.OwnerOf(id) == "g1" {
			slot = shardmap.SlotOf(id)
		}
		if slot >= 0 && shardmap.SlotOf(id) == slot {
			movingIDs = append(movingIDs, id)
		}
	}
	var ids []int
	ids = append(ids, movingIDs...)
	for _, g := range []string{"g1", "g2"} {
		for _, id := range idsOwnedBy(t, m, g, 1+rng.Intn(2), movingIDs[len(movingIDs)-1]+1) {
			if shardmap.SlotOf(id) != slot {
				ids = append(ids, id)
			}
		}
	}
	ownerSrv := func(id int) *Server {
		return cur[cur["g1"].router.mapP.Load().OwnerOf(id)]
	}
	for _, id := range ids {
		clock.Step()
		code, out := call(t, ownerSrv(id), "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}

	// Acked traffic, frozen before the migration so the pre-move archives
	// are the byte-equality oracle.
	var acked []ackedWrite
	nextLogin := map[int]bool{}
	for i := 8 + rng.Intn(20); i > 0; i-- {
		id := ids[rng.Intn(len(ids))]
		clock.Step()
		verb := "logout"
		if nextLogin[id] {
			verb = "login"
		}
		code, out := call(t, ownerSrv(id), "POST", fmt.Sprintf("/v1/db/%d/%s", id, verb), "")
		wantStatus(t, code, http.StatusOK, out)
		at, err := time.Parse(time.RFC3339, out["at"].(string))
		if err != nil {
			t.Fatalf("bad event time %v: %v", out["at"], err)
		}
		acked = append(acked, ackedWrite{id: id, unix: at.Unix(), login: nextLogin[id]})
		nextLogin[id] = !nextLogin[id]
	}
	want := map[int][]byte{}
	for _, id := range movingIDs {
		var buf bytes.Buffer
		if err := g1.Fleet().Snapshot(id, &buf); err != nil {
			t.Fatal(err)
		}
		want[id] = buf.Bytes()
	}

	// The flaky transport comes up underneath the migration.
	inj.FailProb("http.request", 0.2*rng.Float64(), fmt.Errorf("chaos: partitioned"))
	inj.PartialWrites("http.body", 0.25*rng.Float64())
	inj.CorruptWrites("http.body", 0.25*rng.Float64())

	// The migration, with the crash armed. Any verdict is legal here — the
	// invariants are checked after recovery, not after the attempt.
	clock.Step()
	code, out := call(t, g1, "POST", "/v1/shard/migrate", fmt.Sprintf(`{"slot":%d,"to":"g2"}`, slot))
	switch code {
	case http.StatusOK, http.StatusBadGateway, http.StatusServiceUnavailable:
	default:
		t.Fatalf("migrate under chaos = %d (%v)", code, out)
	}

	// Recovery: heal the transport, reboot whatever was killed from its own
	// disks, and reconcile both groups' maps.
	inj.HealAll()
	kd.disarm()
	for _, g := range []string{"g1", "g2"} {
		if cur[g].stopped() {
			boot(g)
		}
	}
	reconcile := func() {
		for _, g := range []string{"g1", "g2"} {
			code, out := call(t, cur[g], "POST", "/v1/shard/reconcile", "")
			wantStatus(t, code, http.StatusOK, out)
		}
	}
	reconcile()

	// If the move never committed anywhere, the slot is still the source's:
	// rerun it over the healed transport, where it must succeed.
	if cur["g1"].router.mapP.Load().Owner(slot) == "g1" {
		clock.Step()
		code, out = call(t, cur["g1"], "POST", "/v1/shard/migrate", fmt.Sprintf(`{"slot":%d,"to":"g2"}`, slot))
		wantStatus(t, code, http.StatusOK, out)
		reconcile()
	}

	// Invariant: one map, agreed by both groups, with the slot moved.
	m1 := cur["g1"].router.mapP.Load()
	m2 := cur["g2"].router.mapP.Load()
	if !m1.Equal(m2) {
		t.Fatalf("maps diverge after recovery: g1 v%d, g2 v%d", m1.Version(), m2.Version())
	}
	if m1.Owner(slot) != "g2" {
		t.Fatalf("slot %d owned by %q after recovery, want g2", slot, m1.Owner(slot))
	}

	// Invariant: every database lives on exactly its owner, with every
	// acked write present there.
	for _, id := range ids {
		owner := m1.OwnerOf(id)
		for g, srv := range cur {
			_, err := srv.Fleet().State(id)
			if g == owner && err != nil {
				t.Fatalf("database %d missing on its owner %s: %v", id, g, err)
			}
			if g != owner && err == nil {
				t.Fatalf("database %d also present on non-owner %s", id, g)
			}
		}
		var owned []ackedWrite
		for _, ev := range acked {
			if ev.id == id {
				owned = append(owned, ev)
			}
		}
		assertAcked(t, cur[owner], owned)
	}

	// Invariant: migrated archives are byte-identical to the pre-move
	// source archives.
	for _, id := range movingIDs {
		var buf bytes.Buffer
		if err := cur["g2"].Fleet().Snapshot(id, &buf); err != nil {
			t.Fatalf("archiving migrated database %d: %v", id, err)
		}
		if !bytes.Equal(buf.Bytes(), want[id]) {
			t.Fatalf("database %d archive changed across migration", id)
		}
	}

	// Liveness: the new owner acknowledges writes on the moved databases.
	for _, id := range movingIDs {
		clock.Step()
		verb := "logout"
		if nextLogin[id] {
			verb = "login"
		}
		code, out := call(t, cur["g2"], "POST", fmt.Sprintf("/v1/db/%d/%s", id, verb), "")
		wantStatus(t, code, http.StatusOK, out)
		nextLogin[id] = !nextLogin[id]
	}
}
