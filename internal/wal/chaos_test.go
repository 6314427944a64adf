package wal

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"prorp/internal/faults"
)

// chaosSeeds is how many seeds (0..n-1) every chaos suite in this package
// runs: `go test -chaos.seeds=3` for a quick look, the full sweep by default
// and from `make chaos` / CI.
var chaosSeeds = flag.Int("chaos.seeds", 50, "seeds each chaos suite runs (0..n-1)")

// eachChaosSeed runs iteration once per seed, as parallel subtests seedNN.
func eachChaosSeed(t *testing.T, iteration func(t *testing.T, seed int64)) {
	for seed := int64(0); seed < int64(*chaosSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			iteration(t, seed)
		})
	}
}

// TestChaosWALTornTail is the journal-level half of the kill-replay chaos
// gate: 50 seeded iterations of concurrent appends under an abusive disk
// (transient errors, partial writes, failed fsyncs), then Kill, then
// post-mortem tail damage beyond the durable prefix, then reopen-and-replay.
// The invariant: every acknowledged record is replayed, in order, and the
// reopen never fails — a torn tail is truncated, not fatal. Runs under
// -race in CI (make wal-chaos).
func TestChaosWALTornTail(t *testing.T) {
	eachChaosSeed(t, chaosWALIteration)
}

func chaosWALIteration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	inj := faults.NewInjector(seed)
	dir := t.TempDir()
	cfg := Config{
		Dir:           dir,
		SegmentBytes:  minSegmentBytes, // small segments: rotations under fire
		Fsync:         FsyncBatch,
		BatchInterval: time.Duration(1+rng.Intn(3)) * time.Millisecond,
		FS:            faults.NewFaultFS(faults.OS, inj, nil),
		Backoff: faults.Backoff{Attempts: 3, Base: time.Microsecond,
			Max: 10 * time.Microsecond, Factor: 2, Rand: inj.Rand()},
	}
	if rng.Intn(3) == 0 {
		cfg.Fsync = FsyncAlways
	}
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// The disk goes bad mid-flight.
	inj.PartialWrites("fs.write", 0.2*rng.Float64())
	inj.FailProb("fs.write", 0.1*rng.Float64(), nil)
	inj.FailProb("fs.sync", 0.15*rng.Float64(), nil)
	inj.FailProb("fs.openfile", 0.1*rng.Float64(), nil)

	// Concurrent appenders; each retries failures (a failed append is not
	// acknowledged) and records what was acknowledged, in per-worker order.
	const workers, perWorker = 4, 30
	acked := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := int64(w*1000 + i)
				var err error
				for attempt := 0; attempt < 8; attempt++ {
					if _, err = j.Append(Record{Type: RecordLogin, ID: id, Unix: id}); err == nil {
						break
					}
				}
				if err == nil {
					acked[w] = append(acked[w], id)
				}
			}
		}(w)
	}
	wg.Wait()

	// Kill: no final fsync. Then damage the crash debris — bytes beyond the
	// durable prefix of the active segment are fair game for a torn write.
	path, durable := j.ActiveSegment()
	j.Kill()
	if fi, err := os.Stat(path); err == nil && fi.Size() > durable {
		data, _ := os.ReadFile(path)
		tail := data[durable:]
		switch rng.Intn(3) {
		case 0: // truncate somewhere in the unsynced tail
			os.WriteFile(path, data[:durable+int64(rng.Intn(len(tail)+1))], 0o644)
		case 1: // bit-flip in the unsynced tail
			tail[rng.Intn(len(tail))] ^= byte(1 << rng.Intn(8))
			os.WriteFile(path, data, 0o644)
		case 2: // garbage appended after the tail
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			f.Write(make([]byte, rng.Intn(64)))
			f.Close()
		}
	}
	inj.HealAll()

	// Reopen and replay: never an error, and every acked record present in
	// per-worker order.
	j2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after kill must succeed: %v", err)
	}
	defer j2.Close()
	replayed := make(map[int64]int) // id -> replay position
	pos := 0
	if _, err := j2.Replay(0, func(rec Record) {
		if _, dup := replayed[rec.ID]; !dup {
			replayed[rec.ID] = pos
		}
		pos++
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	total := 0
	for w := 0; w < workers; w++ {
		last := -1
		for _, id := range acked[w] {
			p, ok := replayed[id]
			if !ok {
				t.Fatalf("worker %d: acknowledged record %d lost after kill-replay", w, id)
			}
			if p < last {
				t.Fatalf("worker %d: record %d replayed out of order", w, id)
			}
			last = p
			total++
		}
	}
	t.Logf("seed %d: %d acked records all replayed (%d total frames)", seed, total, pos)
}
