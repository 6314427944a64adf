package wal

import (
	"errors"
	"io/fs"
	"os"
	"testing"
	"time"

	"prorp/internal/faults"
)

// streamAll drains the record stream from cursor c in maxBytes batches,
// returning every record and the caught-up cursor.
func streamAll(t *testing.T, j *Journal, c Cursor, maxBytes int) ([]Record, Cursor) {
	t.Helper()
	var recs []Record
	for {
		data, _, next, err := j.ReadAfter(c, maxBytes)
		if err != nil {
			t.Fatalf("ReadAfter(%v): %v", c, err)
		}
		if len(data) == 0 {
			return recs, next
		}
		consumed, torn, err := ScanStream(data, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil || torn || consumed != int64(len(data)) {
			t.Fatalf("ScanStream: consumed %d of %d, torn=%v, err=%v", consumed, len(data), torn, err)
		}
		c = next
	}
}

func TestParseCursorRoundTrip(t *testing.T) {
	for _, c := range []Cursor{{}, {Seg: 1, Off: 12}, {Seg: 900, Off: 1 << 40}} {
		got, err := ParseCursor(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCursor(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if c, err := ParseCursor(""); err != nil || !c.IsZero() {
		t.Fatalf("empty cursor = %v, %v", c, err)
	}
	for _, s := range []string{"x", "1:", ":2", "1:-5", "a:b", "1:2:3"} {
		if _, err := ParseCursor(s); err == nil {
			t.Fatalf("ParseCursor(%q) accepted", s)
		}
	}
	if !(Cursor{Seg: 1, Off: 99}).Before(Cursor{Seg: 2, Off: 12}) ||
		!(Cursor{Seg: 2, Off: 12}).Before(Cursor{Seg: 2, Off: 13}) {
		t.Fatal("cursor ordering broken")
	}
}

// TestReadAfterStreamsEverything appends across several segments and
// checks that draining the stream in tiny batches yields exactly the
// acknowledged record sequence, including the active segment's tail, and
// that a caught-up cursor then reads empty until new appends land.
func TestReadAfterStreamsEverything(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(t, dir)
			cfg.Fsync = policy
			cfg.SegmentBytes = minSegmentBytes
			j, err := Open(cfg)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer j.Close()

			const n = 400 // > 2 segments of 25-byte frames at the 4 KiB floor
			appendN(t, j, 0, n)

			got, cur := streamAll(t, j, Cursor{}, 3*int(FrameSize))
			if len(got) != n {
				t.Fatalf("streamed %d records, want %d", len(got), n)
			}
			for i, rec := range got {
				if rec.ID != int64(i) {
					t.Fatalf("record %d has id %d: stream out of order", i, rec.ID)
				}
			}

			// Caught up: empty batch, cursor unchanged.
			data, _, next, err := j.ReadAfter(cur, 1<<20)
			if err != nil || len(data) != 0 || next != cur {
				t.Fatalf("caught-up read = %d bytes, next %v, err %v (cursor %v)", len(data), next, err, cur)
			}

			// New appends become visible from the same cursor.
			appendN(t, j, n, 5)
			more, _ := streamAll(t, j, cur, 1<<20)
			if len(more) != 5 || more[0].ID != n {
				t.Fatalf("tail read got %d records (first %+v), want 5 starting at %d", len(more), more[0], n)
			}
		})
	}
}

// readCountFS counts the bytes read through every file it opens, and the
// directory listings.
type readCountFS struct {
	faults.FS
	read     *int64
	listings *int
}

type readCountFile struct {
	faults.File
	read *int64
}

func (fs readCountFS) Open(name string) (faults.File, error) {
	f, err := fs.FS.Open(name)
	return readCountFile{f, fs.read}, err
}

func (fs readCountFS) ReadDir(name string) ([]fs.DirEntry, error) {
	*fs.listings++
	return fs.FS.ReadDir(name)
}

func (f readCountFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	*f.read += int64(n)
	return n, err
}

// TestReadAfterActiveTailReadsOnlyTheBatch pins the cost of a tailing poll:
// serving the last frame of a long active segment reads that frame, not the
// segment, and lists no directory — a follower polling once per
// acknowledged write must not cost the primary more the longer it has been
// up or the more segments it retains.
func TestReadAfterActiveTailReadsOnlyTheBatch(t *testing.T) {
	var (
		read     int64
		listings int
	)
	cfg := testConfig(t, t.TempDir())
	cfg.Fsync = FsyncOff
	cfg.FS = readCountFS{faults.OS, &read, &listings}
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()

	const n = 2000 // 50 KB of frames, far below the rotation threshold
	appendN(t, j, 0, n)
	end := j.DurableCursor()
	last := Cursor{Seg: end.Seg, Off: end.Off - FrameSize}

	read, listings = 0, 0
	data, start, next, err := j.ReadAfter(last, 1<<20)
	if err != nil || start != last || next != end || int64(len(data)) != FrameSize {
		t.Fatalf("ReadAfter(%v) = %d bytes, %v..%v, %v; want one frame up to %v", last, len(data), start, next, err, end)
	}
	if read != FrameSize {
		t.Fatalf("serving one frame read %d bytes of a %d-byte segment, want %d", read, end.Off, FrameSize)
	}
	// The batch limit bounds the read too, not just what is shipped.
	read = 0
	first := Cursor{Seg: end.Seg, Off: SegmentDataStart}
	if data, _, _, err = j.ReadAfter(first, 4*int(FrameSize)); err != nil || int64(len(data)) != 4*FrameSize {
		t.Fatalf("ReadAfter(%v, 4 frames) = %d bytes, %v", first, len(data), err)
	}
	if read != 4*FrameSize {
		t.Fatalf("serving four frames read %d bytes, want %d", read, 4*FrameSize)
	}
	// The whole of one stream poll — batch, caught-up probe, lag gauge —
	// stays off the directory while the cursor is in the active segment.
	if data, _, _, err = j.ReadAfter(end, 1<<20); err != nil || len(data) != 0 {
		t.Fatalf("caught-up ReadAfter(%v) = %d bytes, %v", end, len(data), err)
	}
	if gap := j.TailGapRecords(last); gap != 1 {
		t.Fatalf("TailGapRecords(%v) = %d, want 1", last, gap)
	}
	if listings != 0 {
		t.Fatalf("active-segment polls listed the directory %d times, want 0", listings)
	}
}

// TestReadAfterSealedSegmentReadsOnlyTheBatch is the catch-up half: a batch
// out of a sealed segment costs its header plus the batch, not the file.
func TestReadAfterSealedSegmentReadsOnlyTheBatch(t *testing.T) {
	var (
		read     int64
		listings int
	)
	cfg := testConfig(t, t.TempDir())
	cfg.Fsync = FsyncOff
	cfg.FS = readCountFS{faults.OS, &read, &listings}
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()

	const n = 2000
	appendN(t, j, 0, n)
	sealed := j.ActiveSeq()
	if _, err := j.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}

	const maxBytes = 8 * FrameSize
	read = 0
	mid := Cursor{Seg: sealed, Off: SegmentDataStart + 100*FrameSize}
	data, start, next, err := j.ReadAfter(mid, int(maxBytes))
	if err != nil || start != mid || int64(len(data)) != maxBytes || next.Off != mid.Off+maxBytes {
		t.Fatalf("ReadAfter(%v) = %d bytes, %v..%v, %v", mid, len(data), start, next, err)
	}
	if limit := SegmentDataStart + maxBytes; read > limit {
		t.Fatalf("a %d-byte batch from a sealed %d-byte segment read %d bytes, want <= %d",
			maxBytes, SegmentDataStart+n*FrameSize, read, limit)
	}
	// Draining it in batches still yields every record, then hops on.
	got, cur := streamAll(t, j, Cursor{Seg: sealed, Off: SegmentDataStart}, int(maxBytes))
	if len(got) != n || cur != (Cursor{Seg: sealed + 1, Off: SegmentDataStart}) {
		t.Fatalf("drained %d records to %v, want %d to the start of segment %d", len(got), cur, n, sealed+1)
	}
}

// TestReadAfterCaughtUpCursorSurvivesCompaction: a follower that was caught
// up when the journal rotated is moved into the new segment whether its
// poll arrives before or after the snapshot behind the rotation compacts
// the old one — the journal remembers where the sealed segment ended, so
// the answer needs neither the file nor the directory. Two rotations
// behind, the records in between are gone for good: resync.
func TestReadAfterCaughtUpCursorSurvivesCompaction(t *testing.T) {
	var (
		read     int64
		listings int
	)
	cfg := testConfig(t, t.TempDir())
	cfg.FS = readCountFS{faults.OS, &read, &listings}
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()

	appendN(t, j, 0, 5)
	caughtUp := j.DurableCursor()
	boundary, err := j.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.CompactBefore(boundary); err != nil {
		t.Fatal(err)
	}
	read, listings = 0, 0
	want := Cursor{Seg: boundary, Off: SegmentDataStart}
	data, start, next, err := j.ReadAfter(caughtUp, 1<<20)
	if err != nil || len(data) != 0 || start != want || next != want {
		t.Fatalf("ReadAfter(%v) after rotate+compact = %d bytes, %v..%v, %v; want an empty batch at %v", caughtUp, len(data), start, next, err, want)
	}
	if read != 0 || listings != 0 {
		t.Fatalf("the hop read %d bytes and listed the directory %d times, want neither", read, listings)
	}
	// One record short of caught up is a different matter: that record is
	// in the compacted segment.
	behind := Cursor{Seg: caughtUp.Seg, Off: caughtUp.Off - FrameSize}
	if _, _, _, err := j.ReadAfter(behind, 1<<20); !errors.Is(err, ErrCursorCompacted) {
		t.Fatalf("ReadAfter(%v) = %v, want ErrCursorCompacted", behind, err)
	}
	appendN(t, j, 5, 2)
	boundary2, err := j.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.CompactBefore(boundary2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := j.ReadAfter(caughtUp, 1<<20); !errors.Is(err, ErrCursorCompacted) {
		t.Fatalf("two rotations behind: ReadAfter(%v) = %v, want ErrCursorCompacted", caughtUp, err)
	}
}

// vanishingFS deletes a file just before its nth Open — a compaction
// landing between two reads of one stream poll.
type vanishingFS struct {
	faults.FS
	path  string
	nth   int
	opens *int
}

func (fs vanishingFS) Open(name string) (faults.File, error) {
	if name == fs.path {
		if *fs.opens++; *fs.opens == fs.nth {
			os.Remove(name)
		}
	}
	return fs.FS.Open(name)
}

// TestReadAfterSegmentCompactedMidRead: a sealed segment that disappears
// while a poll is reading it — under the header read or under the batch
// read — is ErrCursorCompacted, never a hop to the next segment: records
// may have remained past the cursor, and a hop would drop them from the
// follower without a trace (a replica that converges on a shorter archive).
func TestReadAfterSegmentCompactedMidRead(t *testing.T) {
	for nth := 1; nth <= 2; nth++ {
		var opens int
		dir := t.TempDir()
		cfg := testConfig(t, dir)
		cfg.FS = vanishingFS{faults.OS, segPath(dir, 1), nth, &opens}
		j, err := Open(cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		appendN(t, j, 0, 10)
		if _, err := j.Rotate(); err != nil {
			t.Fatal(err)
		}
		appendN(t, j, 10, 2)
		mid := Cursor{Seg: 1, Off: SegmentDataStart + 4*FrameSize} // six records still to ship
		data, _, next, err := j.ReadAfter(mid, 1<<20)
		if !errors.Is(err, ErrCursorCompacted) {
			t.Fatalf("segment removed under read %d: ReadAfter = %d bytes, next %v, err %v; want ErrCursorCompacted", nth, len(data), next, err)
		}
		j.Close()
	}
}

// parkedRead is what a stream handler does with a caught-up cursor: take
// the tail channel, read, and — having found nothing — wait on the channel
// and read again. parked is closed once the first read came back empty.
type parkedRead struct {
	parked chan struct{}
	done   chan struct{}
	data   []byte
	start  Cursor
	err    error
}

func parkAt(j *Journal, c Cursor) *parkedRead {
	p := &parkedRead{parked: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tail := j.TailChanged()
		p.data, p.start, _, p.err = j.ReadAfter(c, 1<<20)
		if p.err != nil || len(p.data) > 0 || p.start != c {
			return // nothing to wait for; p.parked stays open
		}
		close(p.parked)
		<-tail
		p.data, p.start, _, p.err = j.ReadAfter(c, 1<<20)
	}()
	return p
}

// wait fails the test if the reader does not get as far as ch; the bound is
// a hang guard, not a measurement.
func (p *parkedRead) wait(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("reader never %s", what)
	}
}

// TestTailChangedWakesParkedReader: under every fsync policy a reader
// parked at the journal's shippable end is woken by the next acknowledged
// append and finds the record, and is let go by everything that ends the
// wait for good — Rotate (the cursor hops), a poisoned append, Close, Kill.
func TestTailChangedWakesParkedReader(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncOff} {
		open := func(t *testing.T) (*Journal, *faults.Injector) {
			inj := faults.NewInjector(1)
			cfg := testConfig(t, t.TempDir())
			cfg.Fsync = policy
			cfg.FS = faults.NewFaultFS(faults.OS, inj, nil)
			j, err := Open(cfg)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			t.Cleanup(func() { j.Close() })
			appendN(t, j, 0, 3)
			return j, inj
		}
		park := func(t *testing.T, j *Journal) (*parkedRead, Cursor) {
			end := j.DurableCursor()
			p := parkAt(j, end)
			p.wait(t, "parked", p.parked)
			return p, end
		}
		t.Run(policy.String()+"/append", func(t *testing.T) {
			j, _ := open(t)
			p, _ := park(t, j)
			appendN(t, j, 3, 1)
			p.wait(t, "woke on the append", p.done)
			var got []Record
			if _, _, err := ScanStream(p.data, func(r Record) error { got = append(got, r); return nil }); err != nil ||
				p.err != nil || len(got) != 1 || got[0].ID != 3 {
				t.Fatalf("woken reader got %+v (read err %v, scan err %v), want record 3", got, p.err, err)
			}
		})
		t.Run(policy.String()+"/rotate", func(t *testing.T) {
			j, _ := open(t)
			p, end := park(t, j)
			if _, err := j.Rotate(); err != nil {
				t.Fatal(err)
			}
			p.wait(t, "woke on the rotation", p.done)
			if want := (Cursor{Seg: end.Seg + 1, Off: SegmentDataStart}); p.err != nil || p.start != want {
				t.Fatalf("after Rotate the reader sits at %v (err %v), want %v", p.start, p.err, want)
			}
		})
		t.Run(policy.String()+"/poison", func(t *testing.T) {
			j, inj := open(t)
			p, _ := park(t, j)
			inj.PartialWrites("fs.write", 1)
			if _, err := j.Append(Record{Type: RecordLogin, ID: 99, Unix: 99}); err == nil {
				t.Fatal("partial write was acknowledged")
			}
			inj.Heal("fs.write")
			p.wait(t, "woke on the poisoned append", p.done)
			if p.err != nil || len(p.data) != 0 {
				t.Fatalf("reader was handed %d bytes of a torn frame (err %v)", len(p.data), p.err)
			}
		})
		t.Run(policy.String()+"/close", func(t *testing.T) {
			j, _ := open(t)
			p, _ := park(t, j)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			p.wait(t, "woke on Close", p.done)
			select {
			case <-j.TailChanged():
			default:
				t.Fatal("a closed journal handed out a channel that can still block")
			}
		})
		t.Run(policy.String()+"/kill", func(t *testing.T) {
			j, _ := open(t)
			p, _ := park(t, j)
			j.Kill()
			p.wait(t, "woke on Kill", p.done)
		})
	}
}

// TestReadAfterSkipsPoisonedTail injects a partial write so a torn frame
// lands on disk, and checks the stream serves only acknowledged records:
// the torn tail is skipped, and the stream resumes in the next segment.
func TestReadAfterSkipsPoisonedTail(t *testing.T) {
	dir := t.TempDir()
	inj := faults.NewInjector(1)
	cfg := testConfig(t, dir)
	cfg.FS = faults.NewFaultFS(faults.OS, inj, nil)
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()

	appendN(t, j, 0, 3)
	inj.PartialWrites("fs.write", 1)
	bad := Record{Type: RecordLogin, ID: 99, Unix: 99}
	if _, err := j.Append(bad); err == nil {
		t.Fatal("partial write was acknowledged")
	}
	inj.Heal("fs.write")
	appendN(t, j, 10, 2) // rotates past the poisoned segment

	got, _ := streamAll(t, j, Cursor{}, 1<<20)
	want := []int64{0, 1, 2, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("streamed %d records %v, want ids %v", len(got), got, want)
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("record %d has id %d, want %d", i, got[i].ID, id)
		}
	}
}

// TestReadAfterCursorCompacted checks both resync triggers: a cursor below
// retained history, and a zero cursor when genesis is already compacted.
func TestReadAfterCursorCompacted(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()

	appendN(t, j, 0, 5)
	boundary, err := j.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	appendN(t, j, 5, 5)
	if _, err := j.CompactBefore(boundary); err != nil {
		t.Fatalf("compact: %v", err)
	}

	if _, _, _, err := j.ReadAfter(Cursor{Seg: 1, Off: SegmentDataStart}, 1<<20); !errors.Is(err, ErrCursorCompacted) {
		t.Fatalf("stale cursor error = %v, want ErrCursorCompacted", err)
	}
	if _, _, _, err := j.ReadAfter(Cursor{}, 1<<20); !errors.Is(err, ErrCursorCompacted) {
		t.Fatalf("zero cursor after compaction error = %v, want ErrCursorCompacted", err)
	}

	// From the compaction boundary the stream is intact.
	got, _ := streamAll(t, j, Cursor{Seg: boundary, Off: SegmentDataStart}, 1<<20)
	if len(got) != 5 || got[0].ID != 5 {
		t.Fatalf("post-boundary stream = %+v, want ids 5..9", got)
	}
}

func TestReadAfterCursorAhead(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(testConfig(t, dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()
	appendN(t, j, 0, 2)

	for _, c := range []Cursor{{Seg: 99, Off: SegmentDataStart}, {Seg: 1, Off: 1 << 30}} {
		if _, _, _, err := j.ReadAfter(c, 1<<20); !errors.Is(err, ErrCursorAhead) {
			t.Fatalf("ReadAfter(%v) error = %v, want ErrCursorAhead", c, err)
		}
	}
}

func TestScanStreamStopsAtDamageAndApplyError(t *testing.T) {
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = appendFrame(buf, Record{Type: RecordLogin, ID: int64(i), Unix: int64(i)})
	}
	// Torn tail: half a frame.
	torn := append(append([]byte{}, buf...), appendFrame(nil, Record{Type: RecordLogin, ID: 9, Unix: 9})[:10]...)
	var n int
	consumed, isTorn, err := ScanStream(torn, func(Record) error { n++; return nil })
	if err != nil || !isTorn || n != 3 || consumed != 3*FrameSize {
		t.Fatalf("torn scan: consumed=%d n=%d torn=%v err=%v", consumed, n, isTorn, err)
	}

	// Apply error: consumed counts only applied records.
	boom := errors.New("boom")
	n = 0
	consumed, isTorn, err = ScanStream(buf, func(Record) error {
		if n == 2 {
			return boom
		}
		n++
		return nil
	})
	if !errors.Is(err, boom) || isTorn || consumed != 2*FrameSize {
		t.Fatalf("apply-error scan: consumed=%d torn=%v err=%v", consumed, isTorn, err)
	}

	// Corrupt CRC stops the scan without error.
	flipped := append([]byte{}, buf...)
	flipped[FrameSize+frameOverhead] ^= 0x40
	n = 0
	consumed, isTorn, err = ScanStream(flipped, func(Record) error { n++; return nil })
	if err != nil || !isTorn || n != 1 || consumed != FrameSize {
		t.Fatalf("corrupt scan: consumed=%d n=%d torn=%v err=%v", consumed, n, isTorn, err)
	}
}

func TestTailGapRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	cfg.SegmentBytes = minSegmentBytes
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()

	const n = 300 // spans segments
	appendN(t, j, 0, n)
	if gap := j.TailGapRecords(Cursor{}); gap != n {
		t.Fatalf("gap from genesis = %d, want %d", gap, n)
	}
	_, cur := streamAll(t, j, Cursor{}, 1<<20)
	if gap := j.TailGapRecords(cur); gap != 0 {
		t.Fatalf("gap at caught-up cursor = %d, want 0", gap)
	}
	appendN(t, j, n, 7)
	if gap := j.TailGapRecords(cur); gap != 7 {
		t.Fatalf("gap after 7 more appends = %d, want 7", gap)
	}
	if gap := j.TailGapRecords(Cursor{Seg: 1 << 20, Off: 0}); gap != 0 {
		t.Fatalf("gap for ahead cursor = %d, want 0", gap)
	}
}

func TestInspectDirReports(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(testConfig(t, dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendN(t, j, 0, 4)
	if _, err := j.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	appendN(t, j, 4, 2)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the tail of segment 1, and drop in a bogus segment 4 whose
	// header is garbage.
	seg1 := segPath(dir, 1)
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg1, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := []byte("not a segment")
	if err := os.WriteFile(segPath(dir, 4), garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	reports, err := InspectDir(nil, dir, 2)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3: %+v", len(reports), reports)
	}
	r1 := reports[0]
	if !r1.HeaderOK || !r1.Torn || r1.Records != 3 || r1.Truncated != FrameSize-10 || len(r1.Sample) != 2 {
		t.Fatalf("segment 1 report %+v", r1)
	}
	if r1.TornAt != SegmentDataStart+3*FrameSize {
		t.Fatalf("segment 1 torn at %d, want %d", r1.TornAt, SegmentDataStart+3*FrameSize)
	}
	r2 := reports[1]
	if !r2.HeaderOK || r2.Torn || r2.Records != 2 || r2.Sample[0].ID != 4 {
		t.Fatalf("segment 2 report %+v", r2)
	}
	r4 := reports[2]
	if r4.HeaderOK || !r4.Torn || r4.Truncated != int64(len(garbage)) {
		t.Fatalf("segment 4 report %+v", r4)
	}
}
