package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves behind: the built binary, a
// scratch directory under the checkout's .bench_build, and the child
// processes. cleanup kills and reaps every child and removes the scratch
// directory; it is safe to call from a signal handler's goroutine and more
// than once.
type sandbox struct {
	root string // checkout root (the directory holding BENCHMARK.json)
	dir  string // this run's scratch directory
	bin  string // prorp-serve

	mu       sync.Mutex
	procs    []*proc
	spinners []*exec.Cmd
	done     bool
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// newSandbox builds prorp-serve from the checkout's sources and makes the
// run's scratch directory. The binary lives in .bench_build/bin and is
// rebuilt by `go build` on every run, which is a cache hit unless the
// sources changed.
func newSandbox() (*sandbox, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		return nil, err
	}
	sb := &sandbox{root: root, bin: filepath.Join(build, "bin", "prorp-serve")}
	cmd := exec.Command("go", "build", "-o", sb.bin, "./cmd/prorp-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building prorp-serve: %v\n%s", err, out)
	}
	sb.dir, err = os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	if err := sb.startSpinners(); err != nil {
		sb.cleanup()
		return nil, err
	}
	return sb, nil
}

// startSpinners keeps the CPUs from going idle for the length of the run:
// one child per caller, this same binary with -spin, at the lowest priority,
// so it runs only when nothing else wants the CPU. A vCPU that halts has to
// be woken through the hypervisor, and on a busy host that wake-up is the
// slowest and least repeatable step of a request that finds the server
// idle — on durable-pair, where the callers wait on the disk and the
// replica most of the time, it moved get_p50_ms between 0.34 and 0.51 ms
// from run to run, and 0.264–0.267 ms with the spinners (README.md, "Noise").
func (sb *sandbox) startSpinners() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < callers(); i++ {
		cmd := exec.Command(self, "-spin")
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting spinner: %w", err)
		}
		sb.spinners = append(sb.spinners, cmd)
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, cmd.Process.Pid, 19); err != nil {
			return fmt.Errorf("lowering spinner priority: %w", err)
		}
	}
	return nil
}

// spin is the -spin child: it burns CPU until its parent is gone.
func spin() {
	parent := os.Getppid()
	for os.Getppid() == parent {
		for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
		}
	}
}

// subdir makes a fresh directory inside the scratch directory.
func (sb *sandbox) subdir(prefix string) (string, error) {
	return os.MkdirTemp(sb.dir, prefix+"-")
}

func (sb *sandbox) cleanup() {
	sb.mu.Lock()
	procs, spinners := sb.procs, sb.spinners
	sb.procs, sb.spinners = nil, nil
	sb.done = true
	sb.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, cmd := range spinners {
		cmd.Process.Kill()
		cmd.Wait()
	}
	os.RemoveAll(sb.dir)
}

// dumpLogs writes every child's log to stderr; called on failure only.
func (sb *sandbox) dumpLogs() {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, p := range sb.procs {
		fmt.Fprintf(os.Stderr, "--- %s log ---\n%s\n", p.name, p.log.String())
	}
}

// proc is one prorp-serve child.
type proc struct {
	name string
	url  string
	args []string
	cmd  *exec.Cmd
	log  *lockedBuffer
	wait chan struct{} // closed once the child has been reaped
}

// lockedBuffer is a bytes.Buffer the child's stdout and stderr copiers and
// dumpLogs may touch concurrently.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// reserveAddr picks a free loopback port by binding 127.0.0.1:0 and
// releasing it for the child to bind.
func reserveAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches prorp-serve on addr with args. It does not wait for health.
func (sb *sandbox) start(name, addr string, args ...string) (*proc, error) {
	p := &proc{name: name, url: "http://" + addr, args: append([]string{"-addr", addr}, args...), log: &lockedBuffer{}}
	if err := sb.launch(p); err != nil {
		return nil, err
	}
	return p, nil
}

func (sb *sandbox) launch(p *proc) error {
	p.cmd = exec.Command(sb.bin, p.args...)
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	p.wait = make(chan struct{})
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.done {
		return errors.New("sandbox already cleaned up")
	}
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	go func(cmd *exec.Cmd, done chan struct{}) {
		cmd.Wait()
		close(done)
	}(p.cmd, p.wait)
	if !slices.Contains(sb.procs, p) { // a restart launches a known child
		sb.procs = append(sb.procs, p)
	}
	return nil
}

// kill SIGKILLs the child and waits until it has been reaped.
func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.wait
}

// restart SIGKILLs the child and launches it again with the same arguments,
// on the same files.
func (sb *sandbox) restart(p *proc) error {
	p.kill()
	return sb.launch(p)
}

// waitHealthy polls GET /healthz until it answers 200, the child exits, or
// the deadline passes.
func (p *proc) waitHealthy(client *http.Client, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for {
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		select {
		case <-p.wait:
			return fmt.Errorf("%s exited before becoming healthy", p.name)
		default:
		}
		if time.Now().After(stop) {
			return fmt.Errorf("%s not healthy after %s: %v", p.name, deadline, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times. It
// is 100 on every Linux architecture Go runs on.
const clockTick = 100

// cpuTime is the child's utime+stime from /proc/<pid>/stat.
func (p *proc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat for %s", p.name)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short stat for %s", p.name)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable stat for %s", p.name)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSSMB is the child's VmHWM in MB.
func (p *proc) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func vmHWM(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + statusPath)
}

// selfCPU is this process's user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
