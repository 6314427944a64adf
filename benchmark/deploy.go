package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"prorp/internal/obs"
	"prorp/internal/server"
)

// deployment is one booted system under test and the client side that
// drives it: the server processes (or, on sim-replay, the in-process
// server), one target per caller, and the op stream they share.
type deployment struct {
	workload string
	sb       *sandbox
	seed     *seeded
	procs    []*proc // every server process; procs[0] is where clients connect
	inproc   *server.Server
	snapPath string // the in-process server's snapshot file
	targets  []target
	stream   *opStream
	sp       *spacing
}

// bootDeadline bounds every wait for a node to come up.
const bootDeadline = 30 * time.Second

var routedGroups = []string{"g1", "g2", "g3"}

// seedGroups names the shard groups a workload's seed is split across.
func seedGroups(workload string) []string {
	if workload == wlRouted3G {
		return routedGroups
	}
	return nil
}

// newWorkloadStream deals the workload's ops. Every 50th op is a beat —
// every 20th on durable-pair, where a run completes some 10,000 ops and the
// beat median needs a few hundred samples — and on routed-3g every 49th
// (2 %) is a fleet-wide /v1/kpi, a scatter-gather.
func newWorkloadStream(workload string, seed int64, active []bool) *opStream {
	beatEvery, kpiEvery := 50, 0
	switch workload {
	case wlDurablePair:
		beatEvery = 20
	case wlRouted3G:
		kpiEvery = 49
	}
	return newOpStream(seed, active, beatEvery, kpiEvery)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// boot starts the workload's topology from a pristine copy of the seed,
// waits until every node is healthy and reports the whole fleet, and wires
// one target per caller. soloPrimary boots durable-pair's primary alone,
// acknowledging without a quorum: the baseline repl.quorum_wait_us is
// measured against.
func boot(workload string, sb *sandbox, seed *seeded, streamSeed int64, soloPrimary bool) (*deployment, error) {
	dir, err := sb.subdir("boot")
	if err != nil {
		return nil, err
	}
	d := &deployment{workload: workload, sb: sb, seed: seed, sp: newSpacing(len(seed.Active))}
	snapshot := func(group, name string) (string, error) {
		dst := filepath.Join(dir, name+".snap")
		return dst, copyFile(seed.Snapshots[group], dst)
	}

	switch workload {
	case wlSimReplay:
		snap, err := snapshot("", "fleet")
		if err != nil {
			return nil, err
		}
		d.snapPath = snap
		d.inproc, err = server.New(server.Config{SnapshotPath: snap, SnapshotEvery: time.Hour})
		if err != nil {
			return nil, err
		}
		if got := d.inproc.Fleet().Size(); got != len(seed.Active) {
			return nil, fmt.Errorf("restored %d databases, want %d", got, len(seed.Active))
		}
		for i := 0; i < callers(); i++ {
			d.targets = append(d.targets, &fleetTarget{fleet: d.inproc.Fleet(), size: len(seed.Active)})
		}
		d.stream = newWorkloadStream(workload, streamSeed, seed.Active)
		return d, nil

	case wlMemSingle:
		snap, err := snapshot("", "fleet")
		if err != nil {
			return nil, err
		}
		addr, err := reserveAddr()
		if err != nil {
			return nil, err
		}
		p, err := sb.start("mem-single", addr, "-snapshot", snap, "-snapshot-every", "1h")
		if err != nil {
			return nil, err
		}
		d.procs = []*proc{p}

	case wlDurablePair:
		// No periodic snapshot inside the run. Each one compacts the journal
		// under the replica's cursor (410) and makes it adopt a whole
		// snapshot again; with one every 3 s, one run in some sixty stalled
		// for seconds or failed a write. The traced run forces one snapshot,
		// before its measured phases.
		//
		// The admission gate's sojourn target is raised from 200 ms to 2 s:
		// once in some sixty runs this sandbox's disk holds one fsync (the
		// primary's or, through the quorum wait, the replica's) for the best
		// part of a second, and at twice the target the gate sheds the other
		// caller's logout with a 429 — as designed, but a failed op all the
		// same, and the workloads must be ones on which none fails.
		snap, err := snapshot("", "primary")
		if err != nil {
			return nil, err
		}
		addr, err := reserveAddr()
		if err != nil {
			return nil, err
		}
		quorum := "1"
		if soloPrimary {
			quorum = "0"
		}
		p, err := sb.start("primary", addr, "-snapshot", snap, "-snapshot-every", "1h",
			"-wal-dir", filepath.Join(dir, "wal-primary"), "-wal-fsync", "always",
			"-quorum-acks", quorum, "-repl-node", "p1", "-admission-target-delay", "2s")
		if err != nil {
			return nil, err
		}
		d.procs = []*proc{p}
		if !soloPrimary {
			// The replica boots from the same seed; having state but no
			// stream cursor it adopts the primary's snapshot before it
			// streams. The primary must be listening by then, or the
			// replica's refused polls trip its breaker before the run starts.
			if err := p.waitHealthy(http.DefaultClient, bootDeadline); err != nil {
				return nil, err
			}
			rsnap, err := snapshot("", "replica")
			if err != nil {
				return nil, err
			}
			raddr, err := reserveAddr()
			if err != nil {
				return nil, err
			}
			r, err := sb.start("replica", raddr, "-role", "replica", "-primary-addr", p.url,
				"-snapshot", rsnap, "-snapshot-every", "1h",
				"-wal-dir", filepath.Join(dir, "wal-replica"),
				"-repl-poll-interval", "1ms", "-repl-node", "r1")
			if err != nil {
				return nil, err
			}
			d.procs = append(d.procs, r)
		}

	case wlRouted3G:
		addrs := map[string]string{}
		for _, g := range routedGroups {
			if addrs[g], err = reserveAddr(); err != nil {
				return nil, err
			}
		}
		for _, g := range routedGroups {
			snap, err := snapshot(g, g)
			if err != nil {
				return nil, err
			}
			var peers []string
			for _, h := range routedGroups {
				if h != g {
					peers = append(peers, h+"=http://"+addrs[h])
				}
			}
			p, err := sb.start(g, addrs[g], "-group", g, "-groups", strings.Join(peers, ","),
				"-snapshot", snap, "-snapshot-every", "1h")
			if err != nil {
				return nil, err
			}
			d.procs = append(d.procs, p)
		}

	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}

	for i := 0; i < callers(); i++ {
		d.targets = append(d.targets, newHTTPTarget(d.procs[0].url, d.sp, len(seed.Active)))
	}
	d.stream = newWorkloadStream(workload, streamSeed, seed.Active)
	if err := d.waitReady(); err != nil {
		return nil, err
	}
	return d, nil
}

// admin is the connection the harness uses between phases.
func (d *deployment) admin() *httpTarget { return d.targets[0].(*httpTarget) }

// waitReady waits for every node's /healthz and then for the fleet to be
// whole: /v1/kpi at the entry node must report every seeded database
// (summed over groups on routed-3g), and a replica must hold them too.
func (d *deployment) waitReady() error {
	admin := d.admin()
	for _, p := range d.procs {
		if err := p.waitHealthy(admin.client, bootDeadline); err != nil {
			return err
		}
	}
	if _, err := admin.kpi(); err != nil {
		return fmt.Errorf("after boot: %w", err)
	}
	if d.workload == wlDurablePair && len(d.procs) > 1 {
		return d.waitReplica(d.procs[1], bootDeadline)
	}
	return nil
}

// waitReplica waits until the replica has adopted the primary's state.
func (d *deployment) waitReplica(r *proc, deadline time.Duration) error {
	admin := d.admin()
	stop := time.Now().Add(deadline)
	for {
		var h struct {
			Databases int     `json:"databases"`
			Lag       float64 `json:"replication_lag_records"`
			LastError string  `json:"replication_last_error"`
		}
		resp, err := admin.client.Get(r.url + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.Databases == len(d.seed.Active) && h.Lag == 0 {
				return nil
			}
		}
		if time.Now().After(stop) {
			return fmt.Errorf("replica not caught up after %s: %+v %v", deadline, h, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serverCPU is the CPU time every server process has used so far; on
// sim-replay the server is this process.
func (d *deployment) serverCPU() (time.Duration, error) {
	if d.inproc != nil {
		return selfCPU(), nil
	}
	var total time.Duration
	for _, p := range d.procs {
		c, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSSMB sums the servers' peak resident sets.
func (d *deployment) peakRSSMB() (float64, error) {
	if d.inproc != nil {
		return vmHWM("/proc/self/status")
	}
	var total float64
	for _, p := range d.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// counters is the server-side accounting the harness reads at the process
// boundary: /v1/kpi plus the /metrics series /v1/kpi lacks.
type counters struct {
	Shed         uint64
	OpenBreakers int
	BreakerTrips float64
	WALAppends   uint64
	WALFsyncs    uint64
	WALBytes     float64
	WALReplayed  uint64
}

func (d *deployment) counters() (counters, error) {
	if d.inproc != nil {
		return counters{}, nil // direct calls pass neither admission nor breakers nor journal
	}
	admin := d.admin()
	k, err := admin.kpi()
	if err != nil {
		return counters{}, err
	}
	c := counters{
		Shed: k.shed(), OpenBreakers: k.openBreakers(),
		WALAppends: k.WALAppends, WALFsyncs: k.WALFsyncs, WALReplayed: k.WALReplayedRecords,
	}
	for _, p := range d.procs {
		resp, err := admin.client.Get(p.url + "/metrics")
		if err != nil {
			return counters{}, err
		}
		samples, err := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			return counters{}, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		for _, s := range samples {
			switch {
			case s.Name == "prorp_breaker_trips_total":
				c.BreakerTrips += s.Value
			case s.Name == "prorp_wal_bytes_appended_total" && p == d.procs[0]:
				c.WALBytes = s.Value
			}
		}
	}
	return c, nil
}

// snapshot asks the entry node to persist a snapshot now and reports how
// long it took and how large it was.
func (d *deployment) snapshot() (time.Duration, float64, error) {
	if d.inproc != nil {
		t0 := time.Now()
		n, err := d.inproc.Fleet().WriteTo(io.Discard)
		return time.Since(t0), float64(n), err
	}
	var out struct {
		Bytes float64 `json:"bytes"`
	}
	t0 := time.Now()
	err := d.admin().call(http.MethodPost, "/v1/ops/snapshot", &out)
	return time.Since(t0), out.Bytes, err
}

// killAndRestart SIGKILLs the entry node, starts it again on the same
// files and returns how long it took to answer /healthz. On sim-replay it
// drops the in-process server without a final snapshot and restores it.
func (d *deployment) killAndRestart() (time.Duration, error) {
	t0 := time.Now()
	if d.inproc != nil {
		d.inproc.Kill()
		srv, err := server.New(server.Config{SnapshotPath: d.snapPath, SnapshotEvery: time.Hour})
		if err != nil {
			return 0, err
		}
		d.inproc = srv
		for _, t := range d.targets {
			t.(*fleetTarget).fleet = srv.Fleet()
		}
		return time.Since(t0), nil
	}
	if err := d.sb.restart(d.procs[0]); err != nil {
		return 0, err
	}
	if err := d.procs[0].waitHealthy(d.admin().client, bootDeadline); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// verifyAcked checks that every write the servers acknowledged is reflected
// after a restart: a database whose last acknowledged event was a login must
// be resumed, one whose last was a logout must not be.
func (d *deployment) verifyAcked() error {
	admin := d.admin()
	if _, err := admin.kpi(); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	for db, login := range d.sp.acked() {
		var got dbReply
		if err := admin.call(http.MethodGet, fmt.Sprintf("/v1/db/%d", db), &got); err != nil {
			return fmt.Errorf("after restart: %w", err)
		}
		if resumed := got.State == "resumed"; resumed != login {
			return fmt.Errorf("after restart: database %d is %q but its last acknowledged event was login=%v: an acknowledged write was lost", db, got.State, login)
		}
	}
	return nil
}

// close stops the deployment's servers. The sandbox would reap them at exit
// anyway; closing early frees the cores for the next stage.
func (d *deployment) close() {
	if d.inproc != nil {
		d.inproc.Kill()
		d.inproc = nil
	}
	for _, p := range d.procs {
		p.kill()
	}
}
