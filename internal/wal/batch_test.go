package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prorp/internal/faults"
)

// opFS counts the writes and fsyncs that reach segment files, can skip the
// real fsync (the differential test issues one per record on the reference
// side), and can cut the next write short or fail the next fsync.
type opFS struct {
	faults.FS
	writes, syncs atomic.Int64
	skipSync      bool
	cutNextWrite  atomic.Int64 // >= 0: the next write keeps this many bytes, then fails
	failNextSync  atomic.Bool
}

func newOpFS() *opFS {
	f := &opFS{FS: faults.OS}
	f.cutNextWrite.Store(-1)
	return f
}

type opFile struct {
	faults.File
	fs *opFS
}

func (f *opFS) OpenFile(name string, flag int, perm fs.FileMode) (faults.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return opFile{file, f}, nil
}

var errCut = errors.New("injected: write cut short")

func (f opFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	if keep := f.fs.cutNextWrite.Swap(-1); keep >= 0 {
		n, _ := f.File.Write(p[:keep])
		return n, errCut
	}
	return f.File.Write(p)
}

func (f opFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.failNextSync.Swap(false) {
		return errors.New("injected: fsync failed")
	}
	if f.fs.skipSync {
		return nil
	}
	return f.File.Sync()
}

// noSleepClock makes the FsyncBatch leader's group-commit wait free.
type noSleepClock struct{ faults.WallClock }

func (noSleepClock) Sleep(d time.Duration) {}

func loginBatch(start, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Type: RecordLogin, ID: int64(start + i), Unix: int64(1000 + start + i)}
	}
	return recs
}

func segmentBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// woken reports whether a channel taken from TailChanged has been closed.
func woken(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestAppendBatchMatchesAppend is the differential: the same seeded records
// through AppendBatch (one call per batch) and through Append (one call per
// record) leave identical segment files, cursors, counters, replay output and
// tail wake-ups under every fsync policy. The one difference is the point of
// the batch: one fsync per batch instead of one per record.
func TestAppendBatchMatchesAppend(t *testing.T) {
	types := []RecordType{RecordCreate, RecordDelete, RecordLogin, RecordLogout}
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				open := func() (*Journal, *opFS, string) {
					dir := t.TempDir()
					fsys := newOpFS()
					fsys.skipSync = true
					j, err := Open(Config{Dir: dir, Fsync: policy, FS: fsys, Clock: noSleepClock{}})
					if err != nil {
						t.Fatal(err)
					}
					return j, fsys, dir
				}
				batched, _, bdir := open()
				single, _, sdir := open()

				var records, batches uint64
				for b := 0; b < 6; b++ {
					recs := make([]Record, 1+rng.Intn(400))
					for i := range recs {
						recs[i] = Record{Type: types[rng.Intn(len(types))], ID: rng.Int63n(1 << 40), Unix: rng.Int63n(1 << 33)}
					}
					records += uint64(len(recs))
					batches++

					btail := batched.TailChanged()
					got, err := batched.AppendBatch(recs)
					if err != nil {
						t.Fatalf("seed %d: AppendBatch: %v", seed, err)
					}
					stail := single.TailChanged()
					var want Cursor
					for _, rec := range recs {
						if want, err = single.Append(rec); err != nil {
							t.Fatalf("seed %d: Append: %v", seed, err)
						}
					}
					if got != want {
						t.Fatalf("seed %d batch %d: AppendBatch returned %v, the same records through Append end at %v", seed, b, got, want)
					}
					if !woken(btail) || !woken(stail) {
						t.Fatalf("seed %d batch %d: tail woken batch=%v single=%v, want both", seed, b, woken(btail), woken(stail))
					}
					if bd, sd := batched.DurableCursor(), single.DurableCursor(); bd != sd || bd != got {
						t.Fatalf("seed %d batch %d: shippable end batch=%v single=%v, want %v", seed, b, bd, sd, got)
					}
				}

				bm, sm := batched.Metrics(), single.Metrics()
				wantBatchSyncs, wantSingleSyncs := batches, records
				if policy == FsyncOff {
					wantBatchSyncs, wantSingleSyncs = 0, 0
				}
				if bm.Fsyncs != wantBatchSyncs || sm.Fsyncs != wantSingleSyncs {
					t.Fatalf("seed %d: fsyncs batch=%d single=%d, want %d (one per batch) and %d (one per record)",
						seed, bm.Fsyncs, sm.Fsyncs, wantBatchSyncs, wantSingleSyncs)
				}
				bm.Fsyncs, sm.Fsyncs = 0, 0
				if bm != sm || bm.Appends != records {
					t.Fatalf("seed %d: metrics batch=%+v single=%+v, want equal with %d appends", seed, bm, sm, records)
				}
				if err := batched.Close(); err != nil {
					t.Fatal(err)
				}
				if err := single.Close(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(segmentBytes(t, bdir), segmentBytes(t, sdir)) {
					t.Fatalf("seed %d: segment files differ between AppendBatch and Append", seed)
				}
				replay := func(dir string) []Record {
					j, err := Open(Config{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					defer j.Close()
					got, stats := collect(t, j, 0)
					if stats.TornSegments != 0 {
						t.Fatalf("seed %d: clean journal replayed torn: %+v", seed, stats)
					}
					return got
				}
				if b, s := replay(bdir), replay(sdir); !reflect.DeepEqual(b, s) || uint64(len(b)) != records {
					t.Fatalf("seed %d: replay of the batched journal (%d records) differs from the single one (%d), want %d", seed, len(b), len(s), records)
				}
			}
		})
	}
}

// TestAppendBatchIsOneWriteOneSync: whatever its length, a batch costs the
// segment file one write and one fsync.
func TestAppendBatchIsOneWriteOneSync(t *testing.T) {
	fsys := newOpFS()
	j, err := Open(Config{Dir: t.TempDir(), Fsync: FsyncAlways, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, n := range []int{1, 2, 37, 400} {
		w0, s0 := fsys.writes.Load(), fsys.syncs.Load()
		if _, err := j.AppendBatch(loginBatch(0, n)); err != nil {
			t.Fatal(err)
		}
		if w, s := fsys.writes.Load()-w0, fsys.syncs.Load()-s0; w != 1 || s != 1 {
			t.Fatalf("a %d-record batch cost %d writes and %d fsyncs, want 1 and 1", n, w, s)
		}
	}
	if cur, err := j.AppendBatch(nil); err != nil || !cur.IsZero() {
		t.Fatalf("empty batch = %v, %v; want a no-op", cur, err)
	}
	if _, err := j.AppendBatch([]Record{{Type: RecordLogin}, {Type: 99}}); err == nil {
		t.Fatal("a batch holding an invalid record type was journaled")
	}
	if m := j.Metrics(); m.Appends != 440 {
		t.Fatalf("appends = %d after the refused batches, want 440", m.Appends)
	}
}

// TestAppendBatchFailureAcknowledgesNothing: a write cut inside the batch, or
// a failed fsync after it, poisons the segment at the batch's FIRST byte —
// the whole batch is unacknowledged and unshippable, however many of its
// frames reached the file intact — and the retry lands in a fresh segment.
func TestAppendBatchFailureAcknowledgesNothing(t *testing.T) {
	for _, tc := range []struct {
		mode   string
		policy FsyncPolicy
	}{
		{"short write", FsyncAlways},
		{"short write", FsyncOff}, // written is shippable: only the poison offset holds the torn batch back
		{"failed fsync", FsyncAlways},
	} {
		mode := tc.mode
		t.Run(mode+"/"+tc.policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			fsys := newOpFS()
			j, err := Open(Config{Dir: dir, Fsync: tc.policy, FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			before, err := j.AppendBatch(loginBatch(0, 3))
			if err != nil {
				t.Fatal(err)
			}
			if mode == "short write" {
				fsys.cutNextWrite.Store(4*FrameSize + 9) // four whole frames and a torn fifth
			} else {
				fsys.failNextSync.Store(true)
			}
			tail := j.TailChanged()
			if cur, err := j.AppendBatch(loginBatch(100, 10)); err == nil {
				t.Fatalf("failed batch acknowledged at %v", cur)
			}
			if !woken(tail) {
				t.Fatal("poisoning the segment did not wake the tail")
			}
			if m := j.Metrics(); m.Appends != 3 || m.BytesAppended != uint64(3*FrameSize) {
				t.Fatalf("metrics after the failed batch %+v, want the 3 acknowledged records only", m)
			}
			if end := j.DurableCursor(); end != before {
				t.Fatalf("shippable end %v after the failed batch, want %v: part of an unacknowledged batch would ship", end, before)
			}
			if data, _, _, err := j.ReadAfter(before, 1<<20); err != nil || len(data) != 0 {
				t.Fatalf("ReadAfter(%v) shipped %d bytes of the failed batch (err %v)", before, len(data), err)
			}

			retry, err := j.AppendBatch(loginBatch(100, 10))
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			if want := (Cursor{Seg: before.Seg + 1, Off: SegmentDataStart + 10*FrameSize}); retry != want {
				t.Fatalf("retry ended at %v, want %v: the whole batch at the start of a fresh segment", retry, want)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// Replay: every acknowledged record, in order. Frames of the failed
			// batch that reached the disk intact may replay too — their
			// durability was unknown, exactly like a single record whose fsync
			// failed — but only between the two acknowledged runs.
			j2, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			got, _ := collect(t, j2, 0)
			var acked []int64
			for i, rec := range got {
				if i < 3 || i >= len(got)-10 {
					acked = append(acked, rec.ID)
				} else if rec.ID < 100 || rec.ID > 109 {
					t.Fatalf("replayed %+v between the acknowledged runs: not a record of the failed batch", rec)
				}
			}
			want := []int64{0, 1, 2, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
			if !reflect.DeepEqual(acked, want) {
				t.Fatalf("acknowledged records replayed as %v, want %v", acked, want)
			}
		})
	}
}

// TestAppendBatchRotatesBeforeNeverInside: a full segment is left before a
// batch is written, so a batch is always contiguous in one segment and a
// segment overshoots SegmentBytes by less than one batch.
func TestAppendBatchRotatesBeforeNeverInside(t *testing.T) {
	dir := t.TempDir()
	const perBatch = 100
	j, err := Open(Config{Dir: dir, Fsync: FsyncOff, SegmentBytes: minSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	prev := Cursor{Seg: 1, Off: SegmentDataStart}
	rotated := 0
	for b := 0; b < 9; b++ {
		cur, err := j.AppendBatch(loginBatch(b*perBatch, perBatch))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case cur.Seg == prev.Seg:
			if cur.Off != prev.Off+perBatch*FrameSize {
				t.Fatalf("batch %d ended at %v after %v: not contiguous", b, cur, prev)
			}
		case prev.Off < minSegmentBytes:
			t.Fatalf("batch %d rotated away from a segment of %d bytes (limit %d)", b, prev.Off, minSegmentBytes)
		case cur != Cursor{Seg: prev.Seg + 1, Off: SegmentDataStart + perBatch*FrameSize}:
			t.Fatalf("batch %d after a rotation ended at %v", b, cur)
		default:
			rotated++
		}
		prev = cur
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if rotated == 0 {
		t.Fatal("nine 2,500-byte batches never filled a 4 KiB segment: the test proves nothing")
	}
	reports, err := InspectDir(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rep := range reports {
		if rep.Torn || rep.Records%perBatch != 0 {
			t.Fatalf("segment %d holds %d records (torn=%v): a batch was split across segments", rep.Seq, rep.Records, rep.Torn)
		}
		if rep.SizeBytes >= minSegmentBytes+perBatch*FrameSize {
			t.Fatalf("segment %d is %d bytes: more than one batch past the %d limit", rep.Seq, rep.SizeBytes, minSegmentBytes)
		}
		total += rep.Records
	}
	if total != 9*perBatch {
		t.Fatalf("%d records on disk, want %d", total, 9*perBatch)
	}
}

// TestAppendBatchConcurrentWriters: batches from several goroutines never
// interleave — each lands as one contiguous run — under every policy, while
// a reader tails the stream. Run with -race.
func TestAppendBatchConcurrentWriters(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			fsys := newOpFS()
			fsys.skipSync = true
			j, err := Open(Config{Dir: dir, Fsync: policy, FS: fsys, Clock: noSleepClock{}, SegmentBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			const writers, batchesEach = 4, 25
			var wg sync.WaitGroup
			var total atomic.Int64
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for b := 0; b < batchesEach; b++ {
						n := 1 + rng.Intn(40)
						recs := make([]Record, n)
						for i := range recs {
							// ID names the batch, Unix the position inside it.
							recs[i] = Record{Type: RecordLogin, ID: int64(w*1000 + b), Unix: int64(i)}
						}
						if _, err := j.AppendBatch(recs); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
						total.Add(int64(n))
					}
				}(w)
			}
			streamed := make(chan int, 1)
			stop := make(chan struct{})
			go func() {
				n, c, last := 0, Cursor{}, false
				for {
					tail := j.TailChanged()
					data, _, next, err := j.ReadAfter(c, 1<<20)
					if err != nil {
						t.Errorf("ReadAfter(%v): %v", c, err)
						streamed <- n
						return
					}
					n += len(data) / int(FrameSize)
					if len(data) > 0 || next != c {
						c = next
						continue
					}
					if last {
						streamed <- n
						return
					}
					select {
					case <-tail:
					case <-stop:
						last = true // the writers are done: one more look, then report
					}
				}
			}()
			wg.Wait()
			if got := j.Metrics().Appends; got != uint64(total.Load()) {
				t.Fatalf("appends = %d, want %d", got, total.Load())
			}
			close(stop)
			if n := <-streamed; n != int(total.Load()) {
				t.Fatalf("the tailing reader streamed %d records, %d were appended", n, total.Load())
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			got, _ := collect(t, j2, 0)
			if len(got) != int(total.Load()) {
				t.Fatalf("replayed %d records, want %d", len(got), total.Load())
			}
			seen := map[int64]bool{}
			for i := 0; i < len(got); {
				id := got[i].ID
				if seen[id] {
					t.Fatalf("batch %d appears in two runs: batches interleaved", id)
				}
				seen[id] = true
				for k := 0; i < len(got) && got[i].ID == id; i, k = i+1, k+1 {
					if got[i].Unix != int64(k) {
						t.Fatalf("batch %d: position %d holds record %d", id, k, got[i].Unix)
					}
				}
			}
			if len(seen) != writers*batchesEach {
				t.Fatalf("%d batches replayed, want %d", len(seen), writers*batchesEach)
			}
		})
	}
}

func BenchmarkAppendBatch(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			j, err := Open(Config{Dir: b.TempDir(), Fsync: FsyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			recs := loginBatch(0, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := j.AppendBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
