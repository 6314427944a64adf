package main

import (
	"bytes"
	"path/filepath"
	"time"

	"prorp"
	"prorp/internal/btree"
	"prorp/internal/historystore"
	"prorp/internal/predictor"
	"prorp/internal/server"
	"prorp/internal/workload"
)

// storageLayers measures the layers below the fleet on the seeded state
// itself: every seeded database's history is read back through
// ShardedFleet.History and rebuilt into a historystore.Store (timing the
// inserts, and the same keys into a bare B-tree), then predictor.Predict
// runs once per database as of seed time, and one look-back scan's worth of
// FirstLastLogin range queries is timed. The fleet-level archive and
// Algorithm 5 scan are timed on the same restored fleets.
func storageLayers(sd *seeded, sb *sandbox, m map[string]float64) error {
	dir, err := sb.subdir("layers")
	if err != nil {
		return err
	}
	params := predictor.Default()
	now := sd.Now.Unix()

	var (
		predicts                               []float64 // us per Predict call
		inserts, treeInserts, fll              time.Duration
		tuples, storeBytes, queries, databases int
		archiveWrite, restore                  []float64 // ms
		dueScan                                []float64 // us
	)
	for g, src := range sd.Snapshots {
		snap := filepath.Join(dir, "fleet"+g+".snap")
		if err := copyFile(src, snap); err != nil {
			return err
		}
		srv, err := server.New(server.Config{SnapshotPath: snap, SnapshotEvery: time.Hour})
		if err != nil {
			return err
		}
		fleet := srv.Fleet()
		for _, id := range fleet.IDs() {
			events, err := fleet.History(id)
			if err != nil {
				srv.Kill()
				return err
			}
			st := historystore.New()
			t0 := time.Now()
			for _, e := range events {
				typ := historystore.EventEnd
				if e.Login {
					typ = historystore.EventStart
				}
				st.Insert(e.Time.Unix(), typ)
			}
			inserts += time.Since(t0)

			tree := btree.New()
			t0 = time.Now()
			for _, e := range events {
				tree.Insert(e.Time.Unix(), 1)
			}
			treeInserts += time.Since(t0)

			t0 = time.Now()
			predictor.Predict(st, params, now)
			predicts = append(predicts, us(time.Since(t0)))

			t0 = time.Now()
			for day := int64(1); day <= int64(params.HistoryDays); day++ {
				lo := now - day*secondsPerDay
				st.FirstLastLogin(lo, lo+params.WindowSec)
			}
			fll += time.Since(t0)

			queries += params.HistoryDays
			tuples += st.Len()
			storeBytes += st.SizeBytes()
			databases++
		}

		// Median of three: the archive is written and restored whole.
		var archive bytes.Buffer
		for i := 0; i < 3; i++ {
			archive.Reset()
			t0 := time.Now()
			if _, err := fleet.WriteTo(&archive); err != nil {
				srv.Kill()
				return err
			}
			archiveWrite = append(archiveWrite, ms(time.Since(t0)))
			t0 = time.Now()
			restored, _, err := prorp.RestoreShardedFleet(prorp.DefaultOptions(), 0, bytes.NewReader(archive.Bytes()))
			if err != nil {
				srv.Kill()
				return err
			}
			restore = append(restore, ms(time.Since(t0)))
			restored.Close()
		}
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			fleet.DueForResume(sd.Now)
			dueScan = append(dueScan, us(time.Since(t0)))
		}
		srv.Kill()
	}

	groups := float64(len(sd.Snapshots))
	m["predictor.predict_us"] = percentile(predicts, 0.50)
	m["predictor.predict_p99_us"] = percentile(predicts, 0.99)
	m["historystore.insert_ns"] = float64(inserts) / float64(tuples)
	m["btree.insert_ns"] = float64(treeInserts) / float64(tuples)
	m["historystore.first_last_login_ns"] = float64(fll) / float64(queries)
	m["historystore.tuples_per_db"] = float64(tuples) / float64(databases)
	m["historystore.bytes_per_db"] = float64(storeBytes) / float64(databases)
	// Per group, so that routed-3g's three thirds add up to the whole fleet.
	m["shardedfleet.archive_write_ms"] = median(archiveWrite) * groups
	m["shardedfleet.restore_ms"] = median(restore) * groups
	m["shardedfleet.due_scan_us"] = median(dueScan) * groups
	return nil
}

// engineLayers runs the simulator once and splits its wall time into trace
// generation and engine.Run; the workflow counts are an exact oracle.
func engineLayers(seed int64, m map[string]float64) error {
	prof, err := workload.Region(seedRegion)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(seed, prof)
	if err != nil {
		return err
	}
	t0 := time.Now()
	gen.Generate(simDatabases, 0, simDays*secondsPerDay)
	generate := time.Since(t0)

	t0 = time.Now()
	rep, err := prorp.Simulate(prorp.SimulationConfig{Region: seedRegion, Databases: simDatabases, EvalDays: simEvalDays, Seed: seed})
	if err != nil {
		return err
	}
	m["workload.generate_ms"] = ms(generate)
	m["engine.run_s"] = (time.Since(t0) - generate).Seconds()
	m["engine.prewarms"] = float64(rep.Prewarms)
	m["engine.physical_pauses"] = float64(rep.PhysicalPauses)
	m["engine.qos_warm_pct"] = rep.QoSPercent
	m["engine.cogs_idle_pct"] = rep.IdlePercent
	return nil
}
