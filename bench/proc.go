package main

import (
	"bytes"
	"context"
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

// buildDir holds everything a run leaves behind that is not a result: the
// rfidtrackd binary and the per-run temp directories. It sits inside the
// checkout (and in .gitignore) because the benchmark may write nowhere
// else.
const buildDir = ".bench_build"

// hygiene tracks every child process and temp directory of the run so
// that any exit path — success, failed check, timeout, SIGINT — leaves
// neither an rfidtrackd nor a data directory behind.
type hygiene struct {
	mu    sync.Mutex
	procs map[*daemon]struct{}
	dirs  []string
}

var tracked = &hygiene{procs: map[*daemon]struct{}{}}

func (h *hygiene) addProc(d *daemon) {
	h.mu.Lock()
	h.procs[d] = struct{}{}
	h.mu.Unlock()
}

func (h *hygiene) dropProc(d *daemon) {
	h.mu.Lock()
	delete(h.procs, d)
	h.mu.Unlock()
}

// tempDir creates a tracked directory under buildDir.
func (h *hygiene) tempDir(prefix string) (string, error) {
	root := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, prefix+"-")
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.dirs = append(h.dirs, dir)
	h.mu.Unlock()
	return dir, nil
}

// cleanup kills every live child, waits for each, and removes every temp
// directory. Safe to call more than once and from the signal handler.
func (h *hygiene) cleanup() {
	h.mu.Lock()
	procs := make([]*daemon, 0, len(h.procs))
	for d := range h.procs {
		procs = append(procs, d)
	}
	dirs := h.dirs
	h.dirs = nil
	h.mu.Unlock()
	for _, d := range procs {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// buildDaemon compiles cmd/rfidtrackd into buildDir and returns the
// binary's path. The build inherits the caller's Go environment, so the
// driver's wrapper can point GOCACHE inside the checkout.
func buildDaemon(ctx context.Context) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "rfidtrackd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rfidtrackd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rfidtrackd: %w\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// daemon is one spawned rfidtrackd.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	started time.Time
	waited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
}

// startDaemon execs the binary with GOGC=100 and its output captured to a
// log file in dir, and returns once GET /healthz answers 200 — or with the
// daemon's output when it dies or never becomes healthy. readyIn is exec →
// first 200.
func startDaemon(ctx context.Context, bin, logDir string, port int, args ...string) (d *daemon, readyIn time.Duration, err error) {
	logPath := filepath.Join(logDir, fmt.Sprintf("daemon-%d.log", port))
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOGC=100")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the harness itself is killed, the kernel takes the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d = &daemon{cmd: cmd, url: "http://" + addr, logPath: logPath, waited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	tracked.addProc(d)
	go func() {
		d.waitErr = cmd.Wait()
		close(d.waited)
	}()

	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(d.started), nil
			}
		}
		select {
		case <-d.waited:
			tracked.dropProc(d)
			return nil, 0, fmt.Errorf("rfidtrackd exited before becoming healthy (%v):\n%s", d.waitErr, d.logTail())
		case <-ctx.Done():
			d.kill()
			return nil, 0, fmt.Errorf("rfidtrackd not healthy: %w\n%s", ctx.Err(), d.logTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL and waits for the process to be reaped: the crash the
// recovery workloads need, and the teardown every other path uses.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.waited
	tracked.dropProc(d)
}

// logTail returns the last few KB of the daemon's output, for echoing when
// a daemon fails.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return "(no daemon output: " + err.Error() + ")"
	}
	const keep = 4 << 10
	if len(b) > keep {
		b = b[len(b)-keep:]
	}
	return string(bytes.TrimSpace(b))
}

// procUsage is a /proc sample of one process.
type procUsage struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM, the peak resident set
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime.
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

// parseStatCPU extracts utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may itself contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseStatusHWM extracts VmHWM (in kB) from the contents of
// /proc/<pid>/status.
func parseStatusHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// usage samples the daemon's CPU time and peak RSS from /proc.
func (d *daemon) usage() (procUsage, error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procUsage{}, err
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		return procUsage{}, err
	}
	hwm, err := parseStatusHWM(string(status))
	if err != nil {
		return procUsage{}, err
	}
	return procUsage{cpu: cpu, hwmKB: hwm}, nil
}
