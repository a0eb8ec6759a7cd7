package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/trajcomp/bqs/internal/server"
)

// tenant is the one tenant every workload writes to and reads from.
const tenant = "bench"

// daemon is one running bqsd process.
type daemon struct {
	cmd         *exec.Cmd
	addr        string // protocol listener
	metricsAddr string // /metrics listener
	stdoutDone  chan struct{}
	stopOnce    sync.Once
	stopErr     error
}

// live tracks every started daemon so the watchdog can kill them.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemon execs bqsd on dir with the deployment settings (loopback
// listeners on free ports, /metrics on) plus extra flags, and returns
// once the tenant's first HelloAck arrived, with the client that
// received it and the time from exec to that ack.
func startDaemon(bin, dir, logPath string, extra ...string) (*daemon, *server.Client, time.Duration, error) {
	args := append([]string{"-dir", dir, "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, extra...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, fmt.Errorf("start bqsd: %w", err)
	}
	d := &daemon{cmd: cmd, stdoutDone: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()

	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.stdoutDone)
		var a [2]string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if s, ok := strings.CutPrefix(line, "bqsd: listening on "); ok {
				a[0] = s
			}
			if s, ok := strings.CutPrefix(line, "bqsd: metrics on http://"); ok {
				a[1] = strings.TrimSuffix(s, "/metrics")
				addrs <- a
			}
		}
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained until exit
	}()
	select {
	case a := <-addrs:
		d.addr, d.metricsAddr = a[0], a[1]
	case <-d.stdoutDone:
		_ = d.stop()
		return nil, nil, 0, fmt.Errorf("bqsd exited before listening (see %s)", logPath)
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, nil, 0, errors.New("bqsd did not start listening within 30s")
	}
	c, err := server.Dial(d.addr, tenant)
	if err != nil {
		_ = d.stop()
		return nil, nil, 0, fmt.Errorf("hello: %w", err)
	}
	return d, c, time.Since(start), nil
}

// dial opens another connection to the tenant.
func (d *daemon) dial() (*server.Client, error) { return server.Dial(d.addr, tenant) }

// stop drains bqsd with SIGTERM — it flushes sessions, syncs and closes
// the log — and waits for it to exit, killing it after 60 s.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
		done := make(chan error, 1)
		go func() {
			<-d.stdoutDone
			done <- d.cmd.Wait()
		}()
		select {
		case d.stopErr = <-done:
		case <-time.After(60 * time.Second):
			_ = d.cmd.Process.Kill() // drain hung; the error below reports it
			<-done
			d.stopErr = errors.New("bqsd did not drain within 60s")
		}
		if d.stopErr != nil {
			d.stopErr = fmt.Errorf("bqsd shutdown: %w", d.stopErr)
		}
		live.Lock()
		delete(live.set, d)
		live.Unlock()
	})
	return d.stopErr
}

// killAll ends every daemon still running; the watchdog's last resort.
func killAll() {
	live.Lock()
	defer live.Unlock()
	for d := range live.set {
		_ = d.cmd.Process.Kill() // exiting anyway
		_, _ = d.cmd.Process.Wait()
	}
}

// hwmMiB reads the process's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads /metrics and returns the bench tenant's samples by name.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	suffix := `{tenant="` + tenant + `"}`
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if name, ok = strings.CutSuffix(name, suffix); !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		m[name] = v
	}
	if len(m) == 0 {
		return nil, errors.New("/metrics has no samples for the bench tenant")
	}
	return m, nil
}

// cpuSeconds is bqsd's user plus system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 1/100 s).
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks float64
	for _, v := range f[11:13] { // utime, stime: fields 14 and 15 of the line
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return ticks / 100, nil
}

// hostTicks reads the host's steal and total CPU ticks from /proc/stat.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, v := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseFloat(v, 64) // a malformed field reads as 0 ticks
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
