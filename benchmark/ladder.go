package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"prorp/internal/admission"
	"prorp/internal/server"
	"prorp/internal/shardmap"
	"prorp/internal/wal"
)

// span is one timed call into one layer. Spans of one op share Op; Parent
// names the span of the same op one rung up the ladder.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// The ladder's rungs, outermost first. Each rung replays the same ops
// against a freshly restored copy of the seed, entering the stack one
// public function deeper than the rung above it.
const (
	rungClient    = "client"            // closed loop against the real topology
	rungHTTP      = "server.http_rtt"   // loopback round trip to an in-process server.Server
	rungServe     = "server.serve_http" // Server.ServeHTTP called directly
	rungAdmission = "admission.acquire" // Controller.Acquire + release
	rungShardmap  = "shardmap.owner_of" // Map.OwnerOf
	rungWAL       = "wal.append"        // Journal.Append, no fsync
	rungFleet     = "shardedfleet"      // ShardedFleet.Login/Idle/ExplainPrediction/RunResumeOp
)

// rungParent is the ladder's shape.
var rungParent = map[string]string{
	rungServe:     rungHTTP,
	rungAdmission: rungServe,
	rungShardmap:  rungServe,
	rungWAL:       rungServe,
	rungFleet:     rungServe,
}

// tracer keeps spans in memory, one slice per caller, until the run ends.
type tracer struct {
	epoch time.Time
	per   [][]span
}

func newTracer(callers int) *tracer {
	return &tracer{epoch: time.Now(), per: make([][]span, callers)}
}

func (t *tracer) record(caller int, name string, opIndex int, kind opKind, start, end time.Time) {
	t.per[caller] = append(t.per[caller], span{
		Name: name, Op: opIndex, Kind: kind.String(),
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Parent: rungParent[name],
	})
}

func (t *tracer) spans() []span {
	var all []span
	for _, p := range t.per {
		all = append(all, p...)
	}
	return all
}

// selfTimes computes, for every span, its duration minus the durations of
// the same op's spans one rung down, and groups the results by span name.
// keep filters spans by kind ("" = all).
func selfTimes(spans []span, kind string) map[string][]time.Duration {
	type key struct {
		op   int
		name string
	}
	children := make(map[key]time.Duration)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Op, s.Parent}] += s.dur()
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		if kind == "" || s.Kind == kind {
			out[s.Name] = append(out[s.Name], s.dur()-children[key{s.Op, s.Name}])
		}
	}
	return out
}

// durations groups span durations by name, filtered by kind ("" = all).
func durations(spans []span, kind string) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		if kind == "" || s.Kind == kind {
			out[s.Name] = append(out[s.Name], s.dur())
		}
	}
	return out
}

func p50(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// writeSpans writes the span file.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Parents  map[string]string `json:"parents"`
		Spans    []span            `json:"spans"`
	}{workload, seed, rungParent, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// seqClock is the in-process servers' clock: the wall clock plus the
// current op's per-database sequence number in seconds (see fleetTarget).
type seqClock struct{ seq atomic.Int64 }

func (c *seqClock) now() time.Time {
	return time.Now().Add(time.Duration(c.seq.Load()) * time.Second)
}

// handlerTransport answers a request by calling the handler directly: the
// serve_http rung, with the same client code around it as the rung above.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// ladderOps is how many ops of the workload's stream the ladder replays.
const ladderOps = 20000

// fsyncSamples is how many appends the fsync measurement makes: an fsync
// costs milliseconds here, so 20,000 would take a minute.
const fsyncSamples = 300

// ladder replays the first ladderOps ops of the workload's stream, one
// caller, at each rung in turn, recording one span per call. Every server
// rung restores its own copy of the seed, so all rungs see the same state.
// On durable-pair the in-process servers journal without fsync: the fsync
// is measured once, at the journal rung, where nothing else adds noise.
func ladder(workload string, sd *seeded, seed int64, sb *sandbox, tr *tracer, res *result) error {
	ops := newWorkloadStream(workload, seed, sd.Active).take(ladderOps)

	// replay times the call into one rung for every op the rung applies to.
	replay := func(name string, clock *seqClock, applies func(op) bool, call func(i int, o op) error) {
		attempted, failed := 0, 0
		var first error
		for i, o := range ops {
			if applies != nil && !applies(o) {
				continue
			}
			attempted++
			if clock != nil {
				clock.seq.Store(int64(o.Seq))
			}
			t0 := time.Now()
			err := call(i, o)
			t1 := time.Now()
			if err != nil {
				failed++
				if first == nil {
					first = err
				}
				continue
			}
			tr.record(0, name, i, o.Kind, t0, t1)
		}
		res.Attempted += attempted
		res.Failed += failed
		if first != nil {
			res.problem("ladder rung %s: %d of %d ops failed, first: %v", name, failed, attempted, first)
		}
	}

	// serverRung restores one in-process server per seed group and replays
	// the ops through whatever target mk builds for each.
	serverRung := func(name string, mk func(srv *server.Server, sp *spacing) (target, func(), error)) error {
		dir, err := sb.subdir("ladder")
		if err != nil {
			return err
		}
		clock := &seqClock{}
		sp := newSpacing(len(sd.Active))
		targets := map[string]target{}
		var closers []func()
		defer func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		}()
		for g, src := range sd.Snapshots {
			snap := filepath.Join(dir, "fleet"+g+".snap")
			if err := copyFile(src, snap); err != nil {
				return err
			}
			cfg := server.Config{SnapshotPath: snap, SnapshotEvery: time.Hour, Now: clock.now}
			if workload == wlDurablePair {
				cfg.WALDir = filepath.Join(dir, "wal"+g)
				cfg.WALFsync = wal.FsyncOff
			}
			srv, err := server.New(cfg)
			if err != nil {
				return err
			}
			closers = append(closers, srv.Kill)
			t, stop, err := mk(srv, sp)
			if err != nil {
				return err
			}
			if stop != nil {
				closers = append(closers, stop)
			}
			targets[g] = t
		}
		first := targets[sd.Owner(0)]
		replay(name, clock, nil, func(_ int, o op) error {
			if o.Kind == opBeat || o.Kind == opKPI {
				return first.do(o)
			}
			return targets[sd.Owner(int(o.DB))].do(o)
		})
		return nil
	}

	err := serverRung(rungHTTP, func(srv *server.Server, sp *spacing) (target, func(), error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(l)
		return newHTTPTarget("http://"+l.Addr().String(), sp, srv.Fleet().Size()), func() { hs.Close() }, nil
	})
	if err != nil {
		return err
	}
	err = serverRung(rungServe, func(srv *server.Server, sp *spacing) (target, func(), error) {
		t := newHTTPTarget("http://in-process", sp, srv.Fleet().Size())
		t.client = &http.Client{Transport: handlerTransport{srv}}
		return t, nil, nil
	})
	if err != nil {
		return err
	}
	err = serverRung(rungFleet, func(srv *server.Server, _ *spacing) (target, func(), error) {
		return &fleetTarget{fleet: srv.Fleet(), size: srv.Fleet().Size()}, nil, nil
	})
	if err != nil {
		return err
	}

	gate := admission.NewController(admission.Config{})
	classOf := [numOpKinds]admission.Class{opLogin: admission.Decision, opLogout: admission.Write,
		opGet: admission.Read, opBeat: admission.Decision, opKPI: admission.Read}
	replay(rungAdmission, nil, nil, func(_ int, o op) error {
		release, err := gate.Acquire(classOf[o.Kind])
		if err != nil {
			return err
		}
		release()
		return nil
	})

	smap, err := shardmap.New(routedGroups)
	if err != nil {
		return err
	}
	replay(rungShardmap, nil, isDBOp, func(_ int, o op) error {
		if smap.OwnerOf(int(o.DB)) == "" {
			return fmt.Errorf("database %d has no owner", o.DB)
		}
		return nil
	})

	if workload == wlDurablePair {
		if err := journalRung(ops, sb, replay, res); err != nil {
			return err
		}
	}
	return nil
}

func isWrite(o op) bool { return o.Kind == opLogin || o.Kind == opLogout }
func isDBOp(o op) bool  { return o.Kind != opBeat && o.Kind != opKPI }

// journalRung appends one record per write op to a journal that does not
// fsync — the wal.append spans — and then times fsyncSamples appends to a
// journal that fsyncs every record, as the workload's primary does.
func journalRung(ops []op, sb *sandbox, replay func(string, *seqClock, func(op) bool, func(int, op) error), res *result) error {
	dir, err := sb.subdir("wal")
	if err != nil {
		return err
	}
	open := func(name string, policy wal.FsyncPolicy) (*wal.Journal, error) {
		return wal.Open(wal.Config{Dir: filepath.Join(dir, name), Fsync: policy})
	}
	record := func(i int, o op) wal.Record {
		typ := wal.RecordLogin
		if o.Kind == opLogout {
			typ = wal.RecordLogout
		}
		return wal.Record{Type: typ, ID: int64(o.DB), Unix: time.Now().Unix() + int64(i)}
	}
	nosync, err := open("nosync", wal.FsyncOff)
	if err != nil {
		return err
	}
	defer nosync.Close()
	replay(rungWAL, nil, isWrite, func(i int, o op) error {
		_, err := nosync.Append(record(i, o))
		return err
	})

	always, err := open("always", wal.FsyncAlways)
	if err != nil {
		return err
	}
	defer always.Close()
	var synced []time.Duration
	for i, o := range ops {
		if !isWrite(o) {
			continue
		}
		if len(synced) == fsyncSamples {
			break
		}
		t0 := time.Now()
		if _, err := always.Append(record(i, o)); err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		synced = append(synced, time.Since(t0))
	}
	res.Metrics["wal.append_us"] = us(p50(synced))
	return nil
}
