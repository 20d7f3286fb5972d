package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything the benchmark leaves on the machine: the
// built binaries, one work directory, and every child process. All of
// it lives under <root>/.bench_build so a run writes nothing outside
// its checkout.
type harness struct {
	root   string // repository root (the directory holding cmd/charhpcd)
	work   string // this run's scratch directory, removed by close
	buildS float64

	mu    sync.Mutex
	procs []*proc
}

// findRoot walks up from the working directory to the checkout root.
// `go run -C bench .` starts the harness in bench/, `go test` likewise.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "charhpcd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the repository root (no cmd/charhpcd above the working directory)")
		}
		dir = parent
	}
}

// newHarness builds the two server binaries from source (a no-op
// relink check when they are current) and creates the work directory.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(base, "bin"), 0o755); err != nil {
		return nil, err
	}
	h := &harness{root: root}
	t0 := time.Now()
	build := exec.Command("go", "build", "-o", filepath.Join(base, "bin")+string(filepath.Separator),
		"./cmd/charhpcd", "./cmd/charhpc-router")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	h.buildS = time.Since(t0).Seconds()
	if h.work, err = os.MkdirTemp(base, "run-"); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) bin(name string) string {
	return filepath.Join(h.root, ".bench_build", "bin", name)
}

// dir returns a fresh empty directory under the work directory.
func (h *harness) dir(prefix string) (string, error) {
	return os.MkdirTemp(h.work, prefix+"-")
}

// close kills whatever is still running, removes the work directory,
// and reports a child that had to be killed here as an error: every
// workload stops its own processes, so a survivor is a harness bug or
// a daemon that ignored SIGTERM.
func (h *harness) close() error {
	h.mu.Lock()
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	var errs []error
	for _, p := range procs {
		select {
		case <-p.done:
		default:
			syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
			<-p.done
			errs = append(errs, fmt.Errorf("%s (pid %d) was still running at exit", p.name, p.cmd.Process.Pid))
		}
	}
	if err := os.RemoveAll(h.work); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// proc is one spawned server process.
type proc struct {
	name  string
	url   string
	cmd   *exec.Cmd
	done  chan struct{} // closed once Wait has returned
	ready time.Duration // exec to first /healthz 200
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts bin on a free loopback port (args receives the chosen
// address) in its own process group, with stderr going to a file, and
// waits until /healthz answers 200. The port is free when chosen but
// not reserved, so a child that dies before becoming ready — a lost
// bind race — is retried on a new port.
func (h *harness) spawn(name, bin string, args func(addr string) []string) (*proc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		logf, err := os.CreateTemp(h.work, name+"-*.log")
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(h.bin(bin), args(addr)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		t0 := time.Now()
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
		go func() { cmd.Wait(); close(p.done) }()
		h.mu.Lock()
		h.procs = append(h.procs, p)
		h.mu.Unlock()

		if err := p.waitReady(10 * time.Second); err == nil {
			p.ready = time.Since(t0)
			return p, nil
		} else {
			tail, _ := os.ReadFile(logf.Name())
			lastErr = fmt.Errorf("%s on %s: %v\n%s", name, addr, err, lastLines(tail, 5))
			h.kill(p)
		}
	}
	return nil, lastErr
}

// waitReady polls /healthz until it answers 200, the process exits, or
// the deadline passes.
func (p *proc) waitReady(deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		select {
		case <-p.done:
			return fmt.Errorf("exited before ready (%v)", p.cmd.ProcessState)
		default:
		}
		if _, err := health(p.url); err == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("not ready after %v", deadline)
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// health fetches base/healthz and returns its numeric key=value tokens
// (runs, mem_hits, disk_loads, disk_errs, disk_entries, ...), the
// counters the regime checks read.
func health(base string) (map[string]int64, error) {
	resp, err := probeClient.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	out := map[string]int64{}
	for _, tok := range strings.Fields(string(b)) {
		if k, v, ok := strings.Cut(tok, "="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				out[k] = n
			}
		}
	}
	return out, nil
}

// stop ends a process the workload is done with: SIGTERM to its group,
// SIGKILL after five seconds. It returns the CPU time the process used
// over its whole life (from wait4's rusage, microsecond resolution).
// A process that was already gone exited early, which is an error: the
// numbers of the pass it served cannot be trusted.
func (h *harness) stop(p *proc) (cpu time.Duration, err error) {
	select {
	case <-p.done:
		err = fmt.Errorf("%s (pid %d) exited early: %v", p.name, p.cmd.Process.Pid, p.cmd.ProcessState)
	default:
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
			<-p.done
			err = fmt.Errorf("%s (pid %d) ignored SIGTERM and was killed", p.name, p.cmd.Process.Pid)
		}
	}
	h.forget(p)
	st := p.cmd.ProcessState
	return st.UserTime() + st.SystemTime(), err
}

// kill removes a process without ceremony (failed start-up, error
// paths); harmless on one that stop already reaped.
func (h *harness) kill(p *proc) {
	select {
	case <-p.done:
	default:
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.done
	}
	h.forget(p)
}

func (h *harness) forget(p *proc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, q := range h.procs {
		if q == p {
			h.procs = append(h.procs[:i], h.procs[i+1:]...)
			return
		}
	}
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpuNow reads the live process's user+system CPU time from
// /proc/<pid>/stat. The kernel scales the two so their sum is the
// scheduler's exact runtime; the file reports it in 10 ms ticks, which
// is why round workloads use stop's rusage instead.
func (p *proc) cpuNow() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 11 and 12 after the name.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat for %s", p.name)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// rssPeakMB reads VmHWM, the process's peak resident set, in MiB.
func (p *proc) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// selfCPU is the harness's own user+system CPU time: the load
// generator's cost, printed beside the server's.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// copyDir copies a flat cache directory (diskcache keeps no
// subdirectories) so passes never share a store.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
