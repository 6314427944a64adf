package server

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"prorp/internal/faults"
	"prorp/internal/wal"
)

// The repl-state file, pinned on faults.FS: line one is rewritten whole only
// at the sync events, cursor progress overwrites the progress line in place,
// and whatever a crash leaves of that line the loader either adopts whole or
// ignores.

// replStateFS counts what reaches the repl-state file: temp files created
// for it, renames onto it, and fsyncs and writes through handles opened on it.
type replStateFS struct {
	faults.FS
	createTemps, renames, syncs, writes atomic.Int64
}

type countedReplFile struct {
	faults.File
	fs *replStateFS
}

func (f *replStateFS) CreateTemp(dir, pattern string) (faults.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil || !strings.HasPrefix(pattern, replStateFile) {
		return file, err
	}
	f.createTemps.Add(1)
	return countedReplFile{file, f}, nil
}

func (f *replStateFS) OpenFile(name string, flag int, perm fs.FileMode) (faults.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != replStateFile {
		return file, err
	}
	return countedReplFile{file, f}, nil
}

func (f *replStateFS) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == replStateFile {
		f.renames.Add(1)
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f countedReplFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.File.Write(p)
}

func (f countedReplFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func loadState(t *testing.T, s *Server) (epoch uint64, fenced bool, c wal.Cursor, leaseMs int64, lineage uint64) {
	t.Helper()
	head, c, leaseMs, lineage, err := loadReplState(faults.OS, replStatePath(s.cfg.WALDir))
	if err != nil {
		t.Fatalf("loadReplState: %v", err)
	}
	return head.epoch, head.fenced, c, leaseMs, lineage
}

// TestAckedWriteCostsTheReplicaNoRenameAndNoSync: after every quorum-acked
// write a fresh load of the replica's repl-state returns that write's cursor
// — the ack is the poll after the persist — and across 200 of them the file
// sees one in-place write each: no temp file, no rename, no fsync.
func TestAckedWriteCostsTheReplicaNoRenameAndNoSync(t *testing.T) {
	counting := &replStateFS{FS: faults.OS}
	p, r, clock := quorumPairWith(t, func(rcfg *Config) { rcfg.FS = counting })

	code, out := call(t, p, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	if _, _, c, _, lineage := loadState(t, r); c != p.wal.DurableCursor() || lineage != 1 {
		t.Fatalf("after the create the replica would reboot at %v lineage %d, want %v lineage 1", c, lineage, p.wal.DurableCursor())
	}
	base := [4]int64{counting.createTemps.Load(), counting.renames.Load(), counting.syncs.Load(), counting.writes.Load()}
	if base[0] == 0 {
		t.Fatal("the replica adopted the primary's epoch without a sync persist: nothing below is measured against a file")
	}

	for i := 0; i < 200; i++ {
		verb := "logout"
		if i%2 == 1 {
			verb = "login"
		}
		clock.Step()
		code, out = call(t, p, "POST", "/v1/db/1/"+verb, "")
		wantStatus(t, code, http.StatusOK, out)
		if _, _, c, _, _ := loadState(t, r); c != p.wal.DurableCursor() {
			t.Fatalf("write %d acknowledged at %v, the replica would reboot at %v", i, p.wal.DurableCursor(), c)
		}
	}
	got := [4]int64{counting.createTemps.Load() - base[0], counting.renames.Load() - base[1], counting.syncs.Load() - base[2], counting.writes.Load() - base[3]}
	// One in-place write per applied batch, plus one each time the primary
	// rotated and a 204 moved the follower into the new segment.
	rotations := int64(p.wal.Metrics().Rotations)
	if got[0] != 0 || got[1] != 0 || got[2] != 0 || got[3] < 200 || got[3] > 200+rotations {
		t.Fatalf("200 acked writes cost repl-state %d temp files, %d renames, %d fsyncs, %d writes; want 0, 0, 0 and 200 to %d",
			got[0], got[1], got[2], got[3], 200+rotations)
	}
	samples := scrape(t, r)
	if n := sampleValue(t, samples, "prorp_repl_cursor_persists_total", map[string]string{"kind": "progress"}); n < 200 {
		t.Fatalf("prorp_repl_cursor_persists_total{kind=progress} = %v, want >= 200", n)
	}
	if n := sampleValue(t, samples, "prorp_repl_cursor_persists_total", map[string]string{"kind": "sync"}); n != float64(base[0]) {
		t.Fatalf("prorp_repl_cursor_persists_total{kind=sync} = %v, want the %d rewrites before the run", n, base[0])
	}
}

// replStateServer boots a lone journaled primary to persist through.
func replStateServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(replConfig(t.TempDir(), &fakeClock{t: t0}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func readState(t *testing.T, s *Server) []byte {
	t.Helper()
	data, err := os.ReadFile(replStatePath(s.cfg.WALDir))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSyncPersistLeavesNoStaleProgress: a rewrite after any number of
// progress writes leaves line one and nothing else, and the next progress
// write lands in the new file, not the one the rename replaced.
func TestSyncPersistLeavesNoStaleProgress(t *testing.T) {
	s := replStateServer(t)
	at := func(off int64) wal.Cursor { return wal.Cursor{Seg: 3, Off: off} }
	persist := func(c wal.Cursor, sync bool) {
		t.Helper()
		if err := s.persistReplState(c, sync); err != nil {
			t.Fatal(err)
		}
	}
	persist(at(100), true)
	for off := int64(125); off <= 225; off += 25 {
		persist(at(off), false)
		if _, _, c, _, _ := loadState(t, s); c != at(off) {
			t.Fatalf("after progress to %v the file loads %v", at(off), c)
		}
	}
	if data := readState(t, s); bytes.Count(data, []byte("\n")) != 2 || len(data) != len("PRR1 1 0 3:100 0 1 -\n")+progressLineLen {
		t.Fatalf("five progress writes left %q, want line one and ONE progress line", data)
	}

	persist(at(250), true)
	if data := readState(t, s); string(data) != "PRR1 1 0 3:250 0 1 -\n" {
		t.Fatalf("sync persist left %q, want line one alone", data)
	}
	persist(at(275), false)
	if _, _, c, _, _ := loadState(t, s); c != at(275) {
		t.Fatalf("progress after the rewrite loads %v, want %v: it went to the replaced file", c, at(275))
	}

	// A cursor-only write behind line one never wins.
	persist(at(200), false)
	if _, _, c, _, _ := loadState(t, s); c != at(250) {
		t.Fatalf("a progress line behind line one moved the loaded cursor to %v, want line one's %v", c, at(250))
	}

	// An epoch or fence is never left to a progress line: the election
	// driver rewrites line one before the node shows it, and cursor-only
	// persists after it land in the new file's progress line.
	code, out := call(t, s, "POST", "/v1/repl/fence", `{"epoch":7}`)
	wantStatus(t, code, http.StatusOK, out)
	if data := readState(t, s); string(data) != "PRR1 7 1 3:200 0 1 -\n" {
		t.Fatalf("the fence left %q, want a rewritten line one", data)
	}
	persist(at(300), false)
	if epoch, fenced, c, _, _ := loadState(t, s); epoch != 7 || !fenced || c != at(300) {
		t.Fatalf("progress after the fence loads epoch %d fenced %v cursor %v", epoch, fenced, c)
	}
}

// TestTornProgressLineIsIgnored: a progress write cut at every byte offset —
// over nothing, and over an older progress line — loads without error, with
// epoch, fence, lease and lineage exactly line one's unless the line on disk
// is whole, and a cursor that is line one's, the old line's or the new
// line's: never anything the node did not write.
func TestTornProgressLineIsIgnored(t *testing.T) {
	const lineOne = "PRR1 4 1 7:1012 1700000000123 3\n"
	one := wal.Cursor{Seg: 7, Off: 1012}
	older := formatProgress(wal.Cursor{Seg: 7, Off: 2037}, 1700000005000, 3)
	newer := formatProgress(wal.Cursor{Seg: 8, Off: 512}, 1700000009000, 4)
	if len(older) != progressLineLen || len(newer) != progressLineLen {
		t.Fatalf("progress lines are %d and %d bytes, want the fixed %d", len(older), len(newer), progressLineLen)
	}
	path := filepath.Join(t.TempDir(), replStateFile)
	load := func(content string) (wal.Cursor, int64, uint64) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		head, c, leaseMs, lineage, err := loadReplState(faults.OS, path)
		if err != nil {
			t.Fatalf("%q refused the boot: %v", content, err)
		}
		if head.epoch != 4 || !head.fenced {
			t.Fatalf("%q loaded epoch %d fenced %v: the progress line touched line one's", content, head.epoch, head.fenced)
		}
		return c, leaseMs, lineage
	}
	for k := 0; k <= progressLineLen; k++ {
		c, lease, lineage := load(lineOne + string(newer[:k]))
		if k < progressLineLen && (c != one || lease != 1700000000123 || lineage != 3) {
			t.Fatalf("progress cut at byte %d of %d loaded %v lease %d lineage %d, want line one's", k, progressLineLen, c, lease, lineage)
		}
		if k == progressLineLen && (c != wal.Cursor{Seg: 8, Off: 512} || lease != 1700000009000 || lineage != 4) {
			t.Fatalf("whole progress line loaded %v lease %d lineage %d", c, lease, lineage)
		}

		c, lease, lineage = load(lineOne + string(newer[:k]) + string(older[k:]))
		switch {
		case c == one && lease == 1700000000123 && lineage == 3: // torn: ignored
		case c == wal.Cursor{Seg: 7, Off: 2037} && lease == 1700000005000 && lineage == 3 && bytes.Equal(newer[:k], older[:k]):
		case c == wal.Cursor{Seg: 8, Off: 512} && lease == 1700000009000 && lineage == 4 && bytes.Equal(newer[k:], older[k:]):
		default:
			t.Fatalf("overwrite cut at byte %d loaded %v lease %d lineage %d: none of line one, the old line, the new line", k, c, lease, lineage)
		}
	}
	// Garbage after line one, and one flipped bit in a whole line.
	for _, tail := range []string{"\n", "garbage", strings.Repeat("9", progressLineLen-1) + "\n"} {
		if c, _, _ := load(lineOne + tail); c != one {
			t.Fatalf("tail %q loaded %v, want line one's cursor", tail, c)
		}
	}
	for bit := 0; bit < 8*(progressLineLen-1); bit++ {
		flipped := append([]byte{}, newer...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if c, _, _ := load(lineOne + string(flipped)); c != one {
			t.Fatalf("bit %d flipped: loaded %v, want the line ignored", bit, c)
		}
	}
	// Line one is parsed exactly as before: malformed still refuses the boot.
	if err := os.WriteFile(path, []byte("PRR1 4 1 7:1012\n"+string(newer)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := loadReplState(faults.OS, path); err == nil {
		t.Fatal("a short line one booted on the strength of its progress line")
	}
}

// parentLoadReplState is loadReplState's parse as of the commit before the
// progress line existed, verbatim: what a node rolled back to that build
// makes of a file this build wrote.
func parentLoadReplState(data []byte) (epoch uint64, fenced bool, c wal.Cursor, leaseMs int64, lineage uint64, err error) {
	var fencedInt int
	var curStr string
	n, serr := fmt.Sscanf(string(data), "PRR1 %d %d %s %d %d", &epoch, &fencedInt, &curStr, &leaseMs, &lineage)
	if n != 5 {
		return 0, false, wal.Cursor{}, 0, 0, fmt.Errorf("malformed repl state %q: %v", data, serr)
	}
	if c, err = wal.ParseCursor(curStr); err != nil {
		return 0, false, wal.Cursor{}, 0, 0, fmt.Errorf("malformed repl state cursor: %w", err)
	}
	return epoch, fencedInt != 0, c, leaseMs, lineage, nil
}

// TestReplStateCrossesBuildsBothWays: a file this build wrote — line one plus
// a progress line — boots under the previous build's loader (at line one's
// cursor: older, which the contract allows), and the previous build's
// one-line file boots under this one.
func TestReplStateCrossesBuildsBothWays(t *testing.T) {
	s := replStateServer(t)
	code, out := call(t, s, "POST", "/v1/repl/fence", `{"epoch":5}`)
	wantStatus(t, code, http.StatusOK, out)
	if err := s.persistReplState(wal.Cursor{Seg: 2, Off: 37}, true); err != nil {
		t.Fatal(err)
	}
	if err := s.persistReplState(wal.Cursor{Seg: 2, Off: 62}, false); err != nil {
		t.Fatal(err)
	}
	epoch, fenced, c, _, lineage, err := parentLoadReplState(readState(t, s))
	if err != nil || epoch != 5 || !fenced || c != (wal.Cursor{Seg: 2, Off: 37}) || lineage != 1 {
		t.Fatalf("previous build loads %d/%v/%v/%d (%v) from %q", epoch, fenced, c, lineage, err, readState(t, s))
	}

	path := filepath.Join(t.TempDir(), replStateFile)
	if err := os.WriteFile(path, []byte("PRR1 9 0 4:112 1700000000000 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	head, c, leaseMs, lineage, err := loadReplState(faults.OS, path)
	if err != nil || head != (replHead{epoch: 9}) || c != (wal.Cursor{Seg: 4, Off: 112}) || leaseMs != 1700000000000 || lineage != 8 {
		t.Fatalf("previous build's file loads %+v/%v/%d/%d (%v)", head, c, leaseMs, lineage, err)
	}
}

// TestRebootedReplicaVotesFromItsLastAck: a replica killed right after
// acknowledging record n, rebooted with its primary unreachable, stands and
// votes at a position no older than n — the progress line is what it has.
func TestRebootedReplicaVotesFromItsLastAck(t *testing.T) {
	p, r, clock := quorumPair(t, napSleep)
	code, out := call(t, p, "POST", "/v1/db", `{"id":1}`)
	wantStatus(t, code, http.StatusCreated, out)
	for i := 0; i < 7; i++ {
		verb := "logout"
		if i%2 == 1 {
			verb = "login"
		}
		clock.Step()
		code, out = call(t, p, "POST", "/v1/db/1/"+verb, "")
		wantStatus(t, code, http.StatusOK, out)
	}
	acked := p.wal.DurableCursor()
	r.Kill()

	cfg := r.cfg
	cfg.ReplDoer = &mapDoer{} // nobody home: every poll is refused
	r2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	pos := r2.votePosition()
	cur, lineage := pos.Cursor, pos.Lineage
	if cur.Before(acked) || lineage != 1 {
		t.Fatalf("rebooted replica votes from %v lineage %d; it acknowledged %v under reign 1", cur, lineage, acked)
	}
}

// TestVoteSurvivesReboot: a vote is line one's, written before the grant
// leaves, so a voter that crashes and reboots never grants the same epoch
// to a second candidate — and still answers the first the same way.
func TestVoteSurvivesReboot(t *testing.T) {
	cfg := replConfig(t.TempDir(), &fakeClock{t: t0})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vote := func(s *Server, cand string) bool {
		t.Helper()
		body := fmt.Sprintf(`{"from":%q,"epoch":2,"round":2,"pos":{"lineage":9}}`, cand)
		code, out := call(t, s, "POST", "/v1/repl/vote", body)
		wantStatus(t, code, http.StatusOK, out)
		return out["granted"] == true
	}
	if !vote(s, "b") {
		t.Fatal("first vote for epoch 2 refused")
	}
	if head, _, _, _, _ := loadReplState(faults.OS, replStatePath(cfg.WALDir)); head != (replHead{epoch: 2, fenced: true, vote: "b"}) {
		t.Fatalf("after the grant line one holds %+v", head)
	}
	s.Kill()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if vote(s2, "c") {
		t.Fatal("rebooted voter granted epoch 2 to a second candidate")
	}
	if !vote(s2, "b") {
		t.Fatal("rebooted voter refused the candidate it voted for")
	}
}
