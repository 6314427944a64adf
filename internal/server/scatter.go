// Scatter-gather for fleet-wide surfaces in a partitioned deployment:
// /v1/kpi merges every group's KPI report, /metrics?scope=global merges
// every group's exposition under an injected group label, and the
// Algorithm 5 resume beat scans every group before applying the *global*
// per-iteration prewarm cap to the merged due set. Each scatter runs its
// peers concurrently under one deadline; a group that misses it is reported
// (partial flag + counters), never silently dropped.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"prorp"
	"prorp/internal/admission"
	"prorp/internal/controlplane"
	"prorp/internal/faults"
	"prorp/internal/obs"
)

// defaultScatterTimeout bounds one scatter-gather fan-out.
const defaultScatterTimeout = 2 * time.Second

func (s *Server) scatterTimeout() time.Duration {
	if s.cfg.ScatterTimeout > 0 {
		return s.cfg.ScatterTimeout
	}
	return defaultScatterTimeout
}

// groupReply is one peer's answer to a scatter fan-out.
type groupReply struct {
	group  string
	status int
	body   []byte
	err    error
}

// scatter fans one request out to every peer group concurrently and gathers
// the replies under the scatter deadline. Peers that miss it are returned
// with err set; partial reports whether any peer failed or timed out.
func (s *Server) scatter(method, path string, body []byte) (replies []groupReply, partial bool) {
	rt := s.router
	groups := rt.peerGroupsSorted()
	if len(groups) == 0 {
		return nil, false
	}
	rt.scatterRequests.Add(1)
	ch := make(chan groupReply, len(groups))
	for _, g := range groups {
		go func(g, addr string) {
			rep := groupReply{group: g}
			var rd io.Reader
			if body != nil {
				rd = bytes.NewReader(body)
			}
			req, err := http.NewRequest(method, addr+path, rd)
			if err != nil {
				rep.err = err
				ch <- rep
				return
			}
			if body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := rt.doer.Do(req)
			if err != nil {
				rep.err = err
				ch <- rep
				return
			}
			rep.status = resp.StatusCode
			rep.body, rep.err = io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			resp.Body.Close()
			if rep.err == nil && resp.StatusCode != http.StatusOK {
				rep.err = fmt.Errorf("status %d", resp.StatusCode)
			}
			ch <- rep
		}(g, rt.peers[g])
	}
	// One wall-clock deadline for the whole fan-out: scatter latency is the
	// slowest group or the timeout, whichever comes first. (Deliberately
	// real time, not the injected clock — the deadline guards against peers
	// that genuinely hang.)
	deadline := time.After(s.scatterTimeout())
	got := make(map[string]groupReply, len(groups))
gather:
	for len(got) < len(groups) {
		select {
		case rep := <-ch:
			got[rep.group] = rep
		case <-deadline:
			break gather
		}
	}
	for _, g := range groups {
		rep, ok := got[g]
		if !ok {
			rep = groupReply{group: g, err: fmt.Errorf("timeout after %s", s.scatterTimeout())}
		}
		if rep.err != nil {
			rt.scatterFailures.Add(1)
			partial = true
		}
		replies = append(replies, rep)
	}
	if partial {
		rt.scatterPartials.Add(1)
	}
	return replies, partial
}

// ----- /v1/kpi merge ------------------------------------------------------

// localKPI fills the single-group KPI report — the exact shape /v1/kpi has
// always served (TestKPIShapeFrozen pins it).
func (s *Server) localKPI(now time.Time) kpiJSON {
	kpi := s.Fleet().KPI()
	kpi.SnapshotRetries = s.ops.snapshotRetries.Load()
	kpi.SnapshotFailures = s.ops.snapshotFailures.Load()
	kpi.SnapshotFallbacks = s.ops.snapshotFallbacks.Load()
	kpi.PrewarmRetries = s.ops.prewarmRetries.Load()
	kpi.PrewarmFailures = s.ops.prewarmFailures.Load()
	kpi.WakeRetries = s.ops.wakeRetries.Load()
	kpi.WakeFailures = s.ops.wakeFailures.Load()
	if s.wal != nil {
		wm := s.wal.Metrics()
		kpi.WALAppends = wm.Appends
		kpi.WALFsyncs = wm.Fsyncs
		kpi.WALRotations = wm.Rotations
		kpi.WALSegmentsCompacted = wm.Compacted
		kpi.WALAppendFailures = s.ops.walAppendFailures.Load()
		kpi.WALReplayedRecords = s.ops.walReplayed.Load()
		kpi.WALReplaySkipped = s.ops.walReplaySkipped.Load()
		kpi.WALTornSegments = s.ops.walTornSegments.Load()
		kpi.WALTruncatedBytes = s.ops.walTruncatedBytes.Load()
	}
	out := kpiJSON{
		FleetKPI:      kpi,
		QoSPercent:    kpi.QoSPercent(),
		Shards:        s.Fleet().Shards(),
		PendingWakes:  s.wakes.pending(),
		Now:           now.UTC(),
		UptimeSeconds: int64(now.Sub(s.started) / time.Second),
	}
	if s.admission != nil {
		out.Admission = make(map[string]admissionClassJSON, len(admission.Classes()))
		for _, class := range admission.Classes() {
			st := s.admission.Stats(class)
			out.Admission[class.String()] = admissionClassJSON{
				Admitted: st.Admitted, Shed: st.Shed, Inflight: st.Inflight,
			}
		}
	}
	addBreakers := func(path string, states map[string]string) {
		if len(states) == 0 {
			return
		}
		if out.Breakers == nil {
			out.Breakers = map[string]map[string]string{}
		}
		out.Breakers[path] = states
	}
	if s.replBreakers != nil {
		addBreakers("repl", s.replBreakers.States())
	}
	if s.router != nil && s.router.breakers != nil {
		addBreakers("router", s.router.breakers.States())
	}
	return out
}

// addFleetKPI folds src's gauges and counters into dst, field by field.
func addFleetKPI(dst *prorp.FleetKPI, src prorp.FleetKPI) {
	dst.Databases += src.Databases
	dst.Resumed += src.Resumed
	dst.LogicallyPaused += src.LogicallyPaused
	dst.PhysicallyPaused += src.PhysicallyPaused
	dst.Creates += src.Creates
	dst.Deletes += src.Deletes
	dst.Logins += src.Logins
	dst.Logouts += src.Logouts
	dst.Wakes += src.Wakes
	dst.WarmResumes += src.WarmResumes
	dst.ColdResumes += src.ColdResumes
	dst.LogicalPauses += src.LogicalPauses
	dst.PhysicalPauses += src.PhysicalPauses
	dst.Prewarms += src.Prewarms
	dst.PrewarmsUsed += src.PrewarmsUsed
	dst.PrewarmsWasted += src.PrewarmsWasted
	dst.SnapshotRetries += src.SnapshotRetries
	dst.SnapshotFailures += src.SnapshotFailures
	dst.SnapshotFallbacks += src.SnapshotFallbacks
	dst.PrewarmRetries += src.PrewarmRetries
	dst.PrewarmFailures += src.PrewarmFailures
	dst.WakeRetries += src.WakeRetries
	dst.WakeFailures += src.WakeFailures
	dst.WALAppends += src.WALAppends
	dst.WALAppendFailures += src.WALAppendFailures
	dst.WALFsyncs += src.WALFsyncs
	dst.WALRotations += src.WALRotations
	dst.WALSegmentsCompacted += src.WALSegmentsCompacted
	dst.WALReplayedRecords += src.WALReplayedRecords
	dst.WALReplaySkipped += src.WALReplaySkipped
	dst.WALTornSegments += src.WALTornSegments
	dst.WALTruncatedBytes += src.WALTruncatedBytes
}

// groupStatusJSON reports one group's contribution to a scatter merge.
type groupStatusJSON struct {
	Group string `json:"group"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// scatterKPIJSON is the merged report: the frozen single-group shape plus
// the per-group accounting only a partitioned deployment has.
type scatterKPIJSON struct {
	kpiJSON
	Groups  []groupStatusJSON `json:"groups"`
	Partial bool              `json:"partial"`
}

// scatterKPI merges this group's KPI with every peer's. Peers are asked for
// scope=local so the fan-out never recurses.
func (s *Server) scatterKPI(now time.Time) scatterKPIJSON {
	merged := s.localKPI(now)
	out := scatterKPIJSON{
		Groups: []groupStatusJSON{{Group: s.router.group, OK: true}},
	}
	replies, partial := s.scatter(http.MethodGet, "/v1/kpi?scope=local", nil)
	for _, rep := range replies {
		gs := groupStatusJSON{Group: rep.group, OK: rep.err == nil}
		if rep.err == nil {
			var peer kpiJSON
			if err := json.Unmarshal(rep.body, &peer); err != nil {
				gs.OK, gs.Error = false, "bad kpi reply: "+err.Error()
				partial = true
				s.router.scatterFailures.Add(1)
			} else {
				addFleetKPI(&merged.FleetKPI, peer.FleetKPI)
				merged.Shards += peer.Shards
				merged.PendingWakes += peer.PendingWakes
				// Admission counters sum into fleet-wide totals; breaker
				// states are per-observer, so peer paths keep their group
				// name as a prefix instead of colliding with ours.
				for class, st := range peer.Admission {
					if merged.Admission == nil {
						merged.Admission = map[string]admissionClassJSON{}
					}
					agg := merged.Admission[class]
					agg.Admitted += st.Admitted
					agg.Shed += st.Shed
					agg.Inflight += st.Inflight
					merged.Admission[class] = agg
				}
				for path, states := range peer.Breakers {
					if merged.Breakers == nil {
						merged.Breakers = map[string]map[string]string{}
					}
					merged.Breakers[rep.group+"/"+path] = states
				}
			}
		} else {
			gs.Error = rep.err.Error()
		}
		out.Groups = append(out.Groups, gs)
	}
	merged.QoSPercent = merged.FleetKPI.QoSPercent()
	out.kpiJSON = merged
	out.Partial = partial
	return out
}

// ----- /metrics?scope=global merge ---------------------------------------

// handleMetricsGlobal re-emits every group's exposition under an injected
// group label: local samples first, then each reachable peer's. Groups that
// fail the fan-out are surfaced as prorp_scatter_group_up{group=...} 0.
func (s *Server) handleMetricsGlobal(w http.ResponseWriter) {
	rt := s.router
	var local bytes.Buffer
	s.reg.WritePrometheus(&local)
	lines := relabelExposition(local.Bytes(), rt.group)

	replies, _ := s.scatter(http.MethodGet, "/metrics", nil)
	up := map[string]bool{rt.group: true}
	for _, rep := range replies {
		if rep.err != nil {
			up[rep.group] = false
			continue
		}
		up[rep.group] = true
		lines = append(lines, relabelExposition(rep.body, rep.group)...)
	}
	for g, ok := range up {
		v := 0
		if ok {
			v = 1
		}
		lines = append(lines, fmt.Sprintf("prorp_scatter_group_up{group=%q} %d", g, v))
	}
	sort.Strings(lines)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(strings.Join(lines, "\n") + "\n"))
}

// relabelExposition parses one group's exposition and re-renders every
// sample with the group label prepended.
func relabelExposition(exposition []byte, group string) []string {
	samples, err := obs.ParseExposition(bytes.NewReader(exposition))
	if err != nil {
		return []string{fmt.Sprintf("prorp_scatter_parse_errors_total{group=%q} 1", group)}
	}
	lines := make([]string, 0, len(samples))
	for _, sm := range samples {
		var b strings.Builder
		b.WriteString(sm.Name)
		b.WriteString(`{group="`)
		b.WriteString(escapeLabelValue(group))
		b.WriteString(`"`)
		for _, l := range sm.Labels {
			b.WriteString(",")
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteString(`"`)
		}
		b.WriteString("} ")
		b.WriteString(formatMetricValue(sm.Value))
		lines = append(lines, b.String())
	}
	return lines
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatMetricValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ----- global resume beat (Algorithm 5 across groups) ---------------------

// shardDueJSON is GET /v1/shard/due's reply: this group's phase-one scan.
type shardDueJSON struct {
	Due            []int `json:"due"`
	WakesDelivered int   `json:"wakes_delivered"`
}

// handleShardDue runs phase one of the resume beat for this group on
// behalf of a coordinating peer: deliver due wakes (mirroring the ordering
// of a local tick), then report the uncapped due scan. The coordinator
// merges every group's scan before applying the global cap.
func (s *Server) handleShardDue(w http.ResponseWriter, r *http.Request) {
	if s.rejectNonPrimary(w) {
		return
	}
	now := s.now()
	if v := r.URL.Query().Get("now"); v != "" {
		// The coordinator pins the scan instant so every group answers for
		// the same beat.
		if unix, err := strconv.ParseInt(v, 10, 64); err == nil {
			now = time.Unix(unix, 0)
		}
	}
	delivered := s.deliverDueWakes(now)
	writeJSON(w, http.StatusOK, shardDueJSON{
		Due:            s.Fleet().DueForResume(now),
		WakesDelivered: delivered,
	})
}

// shardPrewarmRequest is POST /v1/shard/prewarm's body: the slice of the
// globally capped due set this group owns.
type shardPrewarmRequest struct {
	Now int64 `json:"now"`
	IDs []int `json:"ids"`
}

// handleShardPrewarm runs phase two for this group: pre-warm the listed
// databases (each re-checked under its shard lock) and perform the
// infrastructure side, exactly like a local tick would.
func (s *Server) handleShardPrewarm(w http.ResponseWriter, r *http.Request) {
	if s.rejectNonPrimary(w) {
		return
	}
	var req shardPrewarmRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad prewarm body: " + err.Error()})
		return
	}
	now := s.now()
	if req.Now != 0 {
		now = time.Unix(req.Now, 0)
	}
	prewarmed := s.Fleet().PrewarmIDs(now, req.IDs)
	s.executePrewarm(prewarmed)
	ids := make([]int, len(prewarmed))
	for i, pw := range prewarmed {
		ids[i] = pw.ID
	}
	writeJSON(w, http.StatusOK, map[string]any{"prewarmed": ids})
}

// executePrewarm performs the infrastructure side of each pre-warm (with
// retries) and schedules the resulting wake timers — the shared tail of the
// local tick and the scatter prewarm handler.
func (s *Server) executePrewarm(prewarmed []prorp.Prewarmed) {
	for _, pw := range prewarmed {
		if s.cfg.OnPrewarm != nil {
			retries, err := faults.Retry(s.clock, s.cfg.Backoff, func() error {
				return s.cfg.OnPrewarm(pw.ID)
			})
			s.ops.prewarmRetries.Add(uint64(retries))
			if err != nil {
				// The policy transition already happened; the failed
				// infrastructure call is surfaced, not silently dropped.
				s.ops.prewarmFailures.Add(1)
				s.logf("prewarm of database %d failed after %d retries: %v", pw.ID, retries, err)
			}
		}
		s.wakes.schedule(pw.ID, pw.Decision.WakeAt)
	}
}

// globalTick is the multi-group resume beat: deliver local wakes, scan
// every group (phase one), cap the merged due set globally, then fan the
// capped set back out for phase two. Groups that miss the scatter deadline
// simply keep their due databases for the next beat — the cap math stays
// correct because their scans were never merged.
func (s *Server) globalTick(now time.Time) (wakes int, ids []int, partial bool, groups []groupStatusJSON) {
	wakes = s.deliverDueWakes(now)
	due := s.Fleet().DueForResume(now)
	owners := map[int]string{}
	rt := s.router
	m := rt.mapP.Load()
	groups = []groupStatusJSON{{Group: rt.group, OK: true}}

	replies, partial := s.scatter(http.MethodGet,
		fmt.Sprintf("/v1/shard/due?now=%d", now.Unix()), nil)
	for _, rep := range replies {
		gs := groupStatusJSON{Group: rep.group, OK: rep.err == nil}
		if rep.err == nil {
			var peer shardDueJSON
			if err := json.Unmarshal(rep.body, &peer); err != nil {
				gs.OK, gs.Error = false, "bad due reply: "+err.Error()
				partial = true
				rt.scatterFailures.Add(1)
			} else {
				for _, id := range peer.Due {
					owners[id] = rep.group
					due = append(due, id)
				}
			}
		} else {
			gs.Error = rep.err.Error()
		}
		groups = append(groups, gs)
	}

	// During a migration overlap (or with stale not-yet-swept copies) the
	// same id can be reported twice — by the local scan and a peer, or by
	// two peers. Dedupe before capping, so a duplicate neither consumes a
	// global cap slot nor is dispatched twice; on conflicting claims the
	// current map's owner decides where the prewarm runs.
	seen := make(map[int]bool, len(due))
	uniq := due[:0]
	for _, id := range due {
		if seen[id] {
			delete(owners, id) // contested: fall through to m.OwnerOf below
			continue
		}
		seen[id] = true
		uniq = append(uniq, id)
	}
	due = uniq

	sort.Ints(due)
	due = controlplane.Config{MaxPrewarmsPerOp: s.cfg.Options.MaxPrewarmsPerOp}.Cap(due)
	var local []int
	remote := map[string][]int{}
	for _, id := range due {
		g, ok := owners[id]
		if !ok {
			g = m.OwnerOf(id) // scanned locally
			if g == rt.group {
				local = append(local, id)
				continue
			}
		}
		remote[g] = append(remote[g], id)
	}

	prewarmed := s.Fleet().PrewarmIDs(now, local)
	s.executePrewarm(prewarmed)
	for _, pw := range prewarmed {
		ids = append(ids, pw.ID)
	}
	for g, gids := range remote {
		body, _ := json.Marshal(shardPrewarmRequest{Now: now.Unix(), IDs: gids})
		req, err := http.NewRequest(http.MethodPost, rt.peers[g]+"/v1/shard/prewarm", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.doer.Do(req)
		if err != nil {
			partial = true
			rt.scatterFailures.Add(1)
			rt.logf("global resume: prewarm fan-out to %q: %v", g, err)
			continue
		}
		var out struct {
			Prewarmed []int `json:"prewarmed"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			partial = true
			rt.scatterFailures.Add(1)
			rt.logf("global resume: prewarm fan-out to %q: status %d, %v", g, resp.StatusCode, err)
			continue
		}
		ids = append(ids, out.Prewarmed...)
	}
	sort.Ints(ids)
	return wakes, ids, partial, groups
}
