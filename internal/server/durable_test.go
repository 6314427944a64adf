package server

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prorp/internal/faults"
	"prorp/internal/shardmap"
)

// dirSyncFS records, in order, the entries the durable writers create or
// rename into place and the directories they fsync.
type dirSyncFS struct {
	faults.FS
	mu  sync.Mutex
	ops []string // "entry <path>" or "syncdir <dir>"
}

func (f *dirSyncFS) record(op string) {
	f.mu.Lock()
	f.ops = append(f.ops, op)
	f.mu.Unlock()
}

func (f *dirSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (faults.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err == nil && flag&os.O_CREATE != 0 {
		f.record("entry " + name)
	}
	return file, err
}

func (f *dirSyncFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if err == nil {
		f.record("entry " + newpath)
	}
	return err
}

func (f *dirSyncFS) SyncDir(name string) error {
	f.record("syncdir " + name)
	if inner, ok := f.FS.(interface{ SyncDir(string) error }); ok {
		return inner.SyncDir(name)
	}
	return nil
}

// synced fails the test unless the last time an entry matching want was
// created or renamed into place, its parent directory was fsynced after.
func (f *dirSyncFS) synced(t *testing.T, what string, want func(path string) bool) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	last, dir := -1, ""
	for i, op := range f.ops {
		if path, ok := strings.CutPrefix(op, "entry "); ok && want(path) {
			last, dir = i, filepath.Dir(path)
		}
	}
	if last < 0 {
		t.Fatalf("%s: no entry written", what)
	}
	for _, op := range f.ops[last+1:] {
		if op == "syncdir "+dir {
			return
		}
	}
	t.Errorf("%s: %s is not followed by a fsync of %s (ops after it: %v)", what, f.ops[last], dir, f.ops[last+1:])
}

// TestDurableWritesSyncTheirDirectory: every file the system relies on
// across a power loss — a WAL segment, the snapshot and its .bak, the
// repl-state file, the shard map — has its directory entry fsynced after
// the create or rename that put it there.
func TestDurableWritesSyncTheirDirectory(t *testing.T) {
	rec := &dirSyncFS{FS: faults.OS}
	dir := t.TempDir()
	cfg := replConfig(dir, &fakeClock{t: t0.Add(9 * time.Hour)})
	cfg.FS = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Creates until the journal rotates: the segment it opens then is the
	// one checked, not only the one Open made.
	for id := 1; s.wal.Metrics().Rotations == 0; id++ {
		if id > 1000 {
			t.Fatal("the journal never rotated")
		}
		code, out := call(t, s, "POST", "/v1/db", fmt.Sprintf(`{"id":%d}`, id))
		wantStatus(t, code, http.StatusCreated, out)
	}
	rec.synced(t, "wal segment", func(p string) bool { return strings.HasSuffix(p, ".seg") })

	for i := 0; i < 2; i++ {
		code, out := call(t, s, "POST", "/v1/ops/snapshot", "")
		wantStatus(t, code, http.StatusOK, out)
	}
	rec.synced(t, "snapshot", func(p string) bool { return p == cfg.SnapshotPath })
	rec.synced(t, "snapshot .bak", func(p string) bool { return p == cfg.SnapshotPath+".bak" })

	if err := s.persistReplState(s.loadCursor(), true); err != nil {
		t.Fatal(err)
	}
	rec.synced(t, "repl-state", func(p string) bool { return p == replStatePath(cfg.WALDir) })

	m, err := shardmap.New([]string{"g1", "g2"})
	if err != nil {
		t.Fatal(err)
	}
	mapPath := filepath.Join(dir, "shard.map")
	if err := shardmap.Save(rec, mapPath, m); err != nil {
		t.Fatal(err)
	}
	rec.synced(t, "shard map", func(p string) bool { return p == mapPath })
}
