package faults

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestTripNThenHeal(t *testing.T) {
	in := NewInjector(1)
	boom := errors.New("boom")
	in.TripN("s", 3, boom)
	for i := 0; i < 3; i++ {
		if _, err := in.Check("s"); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if _, err := in.Check("s"); err != nil {
		t.Fatalf("healed site still fails: %v", err)
	}
	if got := in.Fired("s"); got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	run := func(seed int64) []bool {
		in := NewInjector(seed)
		in.FailProb("s", 0.5, nil)
		out := make([]bool, 64)
		for i := range out {
			_, err := in.Check("s")
			out[i] = err != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-call fault sequences")
	}
}

func TestHealClearsSchedules(t *testing.T) {
	in := NewInjector(7)
	in.FailProb("a", 1, nil)
	in.FailProb("b", 1, nil)
	in.Heal("a")
	if _, err := in.Check("a"); err != nil {
		t.Fatalf("healed site a fails: %v", err)
	}
	if _, err := in.Check("b"); err == nil {
		t.Fatal("site b unexpectedly healed")
	}
	in.HealAll()
	if _, err := in.Check("b"); err != nil {
		t.Fatalf("HealAll left b faulted: %v", err)
	}
}

func TestInjectorConcurrentUse(t *testing.T) {
	in := NewInjector(3)
	in.FailProb("s", 0.5, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Check("s")
			}
		}()
	}
	wg.Wait()
}

// manualClock counts sleeps without spending real time.
type manualClock struct {
	mu    sync.Mutex
	t     time.Time
	slept time.Duration
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.slept += d
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestFaultFSWriteFaults(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(5)
	ffs := NewFaultFS(OS, in, &manualClock{})

	// Partial write: a strict prefix lands, then an error.
	in.PartialWrites("fs.write", 1)
	f, err := ffs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 256)
	n, err := f.Write(payload)
	if err == nil {
		t.Fatal("partial write returned no error")
	}
	if n >= len(payload) {
		t.Fatalf("partial write landed %d of %d bytes", n, len(payload))
	}
	f.Close()
	in.Heal("fs.write")

	// Corruption: the write succeeds but one bit differs on disk.
	in.CorruptWrites("fs.write", 1)
	f2, err := ffs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write(payload); err != nil {
		t.Fatalf("corrupting write errored: %v", err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(f2.Name())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("corrupting write left data intact")
	}
	diff := 0
	for i := range got {
		diff += popcount(got[i] ^ payload[i])
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestFaultFSOpFaultsAndLatency(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(9)
	clock := &manualClock{}
	ffs := NewFaultFS(OS, in, clock)

	in.TripN("fs.rename", 1, nil)
	if err := ffs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename err = %v, want injected", err)
	}
	in.TripN("fs.open", 1, nil)
	if _, err := ffs.Open(filepath.Join(dir, "nope")); !errors.Is(err, ErrInjected) {
		t.Fatalf("open err = %v, want injected", err)
	}
	// Latency flows through the clock, not wall time.
	in.Latency("fs.stat", 3*time.Second, 1)
	ffs.Stat(filepath.Join(dir, "nope"))
	if clock.slept != 3*time.Second {
		t.Fatalf("slept %v, want 3s", clock.slept)
	}
}

func TestFaultFSPassthrough(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, NewInjector(1), nil)
	f, err := ffs.CreateTemp(dir, "p-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "final")
	if err := ffs.Rename(name, dst); err != nil {
		t.Fatal(err)
	}
	r, err := ffs.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := ffs.Stat(dst); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Remove(dst); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := Backoff{Attempts: 6, Base: 100 * time.Millisecond, Max: 400 * time.Millisecond, Factor: 2}
	want := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Attempts: 2, Base: time.Second, Max: time.Second, Factor: 2,
		Jitter: 0.5, Rand: rand.New(rand.NewSource(11))}
	for i := 0; i < 100; i++ {
		d := b.Delay(1)
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("jittered delay %v outside [0.5s, 1s]", d)
		}
	}
}

func TestRetryHealsAndGivesUp(t *testing.T) {
	clock := &manualClock{}
	b := Backoff{Attempts: 4, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}

	// Heals on the third attempt.
	calls := 0
	retries, err := Retry(clock, b, func() error {
		calls++
		if calls < 3 {
			return ErrInjected
		}
		return nil
	})
	if err != nil || retries != 2 || calls != 3 {
		t.Fatalf("retry = (%d, %v), calls = %d", retries, err, calls)
	}
	if clock.slept == 0 {
		t.Fatal("no backoff sleep recorded")
	}

	// Exhausts the budget.
	boom := errors.New("still down")
	retries, err = Retry(clock, b, func() error { return boom })
	if !errors.Is(err, boom) || retries != 3 {
		t.Fatalf("exhausted retry = (%d, %v)", retries, err)
	}
}

// TestWriteFileAtomic: the replace rotates the old file to bak, a failed
// rotation is reported apart and does not stop the replace, a failed
// directory fsync fails the write, and no attempt leaves a temp file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path, bak := filepath.Join(dir, "f"), filepath.Join(dir, "f.bak")
	in := NewInjector(1)
	ffs := NewFaultFS(OS, in, nil)
	read := func(p string) string {
		data, _ := os.ReadFile(p)
		return string(data)
	}

	if rerr, err := WriteFileAtomic(ffs, path, []byte("one"), bak); rerr != nil || err != nil {
		t.Fatalf("first write: %v, %v", rerr, err)
	}
	if rerr, err := WriteFileAtomic(ffs, path, []byte("two"), bak); rerr != nil || err != nil {
		t.Fatalf("second write: %v, %v", rerr, err)
	}
	if read(path) != "two" || read(bak) != "one" {
		t.Fatalf("after two writes: %q, bak %q", read(path), read(bak))
	}

	in.TripN("fs.rename", 1, nil) // the rotation's rename
	if rerr, err := WriteFileAtomic(ffs, path, []byte("three"), bak); !errors.Is(rerr, ErrInjected) || err != nil {
		t.Fatalf("failed rotation: %v, %v", rerr, err)
	}
	if read(path) != "three" || read(bak) != "one" {
		t.Fatalf("after a failed rotation: %q, bak %q", read(path), read(bak))
	}

	in.TripN("fs.syncdir", 1, nil)
	if _, err := WriteFileAtomic(ffs, path, []byte("four"), ""); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed directory fsync: err = %v", err)
	}
	in.TripN("fs.sync", 1, nil)
	if _, err := WriteFileAtomic(ffs, path, []byte("five"), ""); !errors.Is(err, ErrInjected) || read(path) != "four" {
		t.Fatalf("failed file fsync: err = %v, file %q", err, read(path))
	}
	if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(litter) != 0 {
		t.Fatalf("temp litter: %v", litter)
	}
}
