package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// daemon is one axmld process booted by the benchmark.
type daemon struct {
	name string
	url  string // http://127.0.0.1:<port>
	log  string // stderr (the daemon's structured log) goes here
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	err  error         // the process's exit status, valid after done
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before axmld binds the port; nothing else on loopback races for it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots axmld with the given flags on 127.0.0.1:port and waits
// until /readyz answers 200.
func startDaemon(e *env, name string, port int, args ...string) (*daemon, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(e.dir, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.axmld, append([]string{"-name", name, "-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the benchmark die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during boot: %v (see %s)", d.name, d.err, d.log)
		default:
		}
		resp, err := probeClient.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v (see %s)", d.name, timeout, d.log)
}

// stop sends SIGTERM (graceful drain and final snapshot), escalates to
// SIGKILL after 10s, and returns once the process has been reaped.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAll stops every daemon, in reverse boot order.
func stopAll(ds []*daemon) {
	for i := len(ds) - 1; i >= 0; i-- {
		ds[i].stop()
	}
}

// cpu returns the daemon's CPU time so far (utime + stime).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis. utime and stime are fields 14
	// and 15, i.e. the 12th and 13th after the state field.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.name)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's peak resident set (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}

// cpuAll sums CPU time over daemons.
func cpuAll(ds []*daemon) (time.Duration, error) {
	var sum time.Duration
	for _, d := range ds {
		c, err := d.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// metrics is one /metrics scrape: series (name plus label block, as
// exposed) to value.
type metrics map[string]float64

func (d *daemon) scrape() (metrics, error) {
	resp, err := probeClient.Get(d.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", d.name, resp.StatusCode)
	}
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: bad line %q", d.name, line)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// requests sums axml_http_requests_total over status classes for one
// handler.
func (m metrics) requests(handler string) float64 {
	var sum float64
	want := `handler="` + handler + `"`
	for k, v := range m {
		if strings.HasPrefix(k, "axml_http_requests_total{") && strings.Contains(k, want) {
			sum += v
		}
	}
	return sum
}

// checkCounts cross-checks the client's per-handler request counts against
// the daemon's axml_http_requests_total deltas between two scrapes.
func checkCounts(rep *report, d *daemon, before, after metrics, client map[string]int64) {
	for handler, n := range client {
		server := after.requests(handler) - before.requests(handler)
		if float64(n) != server {
			rep.problem(true, "%s: handler %s: client sent %d requests, daemon counted %g", d.name, handler, n, server)
			continue
		}
		rep.note("cross-check %s/%s: client %d = daemon %g", d.name, handler, n, server)
	}
}

// getJSON fetches a JSON document from a daemon.
func getJSON(url string, v any) error {
	resp, err := probeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// newClient returns an HTTP client holding one keep-alive connection per
// host, as one closed-loop caller does.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// do issues one request and reads the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
