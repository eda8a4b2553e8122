package main

// mppmd processes: launch, readiness, warmup, counters, peak memory and
// reaping.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mppm "repro"
	"repro/internal/service"
)

// server is one running mppmd process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// procs owns every process a run starts, so each is reaped on every
// path out of the run.
type procs struct {
	mu      sync.Mutex
	servers []*server // running
	started []int     // pid of every process ever started
	hc      *http.Client
}

func newProcs() *procs {
	return &procs{hc: &http.Client{Timeout: 60 * time.Second}}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// start launches bin on addr with the benchmark's scale and extra
// flags. The process's stderr passes through to the benchmark's.
func (p *procs) start(bin, addr string, extra ...string) (*server, error) {
	args := append([]string{
		"-addr", addr,
		"-trace-length", strconv.Itoa(traceLength),
		"-interval", strconv.Itoa(intervalLength),
		"-log-level", "error",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// Should the benchmark itself be killed, the kernel ends the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	p.mu.Lock()
	p.servers = append(p.servers, s)
	p.started = append(p.started, cmd.Process.Pid)
	p.mu.Unlock()
	return s, nil
}

// stop ends one server: SIGTERM, then SIGKILL if it has not exited
// within its drain window, and waits until it has.
func (p *procs) stop(s *server) {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// stopAll stops every server this run started.
func (p *procs) stopAll() {
	p.mu.Lock()
	servers := p.servers
	p.servers = nil
	p.mu.Unlock()
	for _, s := range servers {
		p.stop(s)
	}
}

// waitReady polls GET /v1/readyz until it answers 200.
func (p *procs) waitReady(ctx context.Context, s *server) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := p.hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("mppmd at %s exited before it was ready: %v", s.base, s.err)
		case <-ctx.Done():
			return fmt.Errorf("mppmd at %s not ready: %w", s.base, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// warm sends a synchronous POST /v1/warmup for all six Table 2 configs.
func (p *procs) warm(ctx context.Context, s *server) (service.WarmupResponse, error) {
	var out service.WarmupResponse
	body, err := json.Marshal(service.WarmupRequest{Configs: configNames()})
	if err != nil {
		return out, err
	}
	err = p.doJSON(ctx, http.MethodPost, s.base+"/v1/warmup", body, &out)
	if want := len(configNames()) * len(mppm.BenchmarkNames()); err == nil && out.Profiles != want {
		err = fmt.Errorf("warmup at %s profiled %d, want %d", s.base, out.Profiles, want)
	}
	return out, err
}

// stats reads GET /v1/stats.
func (p *procs) stats(ctx context.Context, s *server) (service.StatsResponse, error) {
	var out service.StatsResponse
	err := p.doJSON(ctx, http.MethodGet, s.base+"/v1/stats", nil, &out)
	return out, err
}

func (p *procs) doJSON(ctx context.Context, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return nil
}

// series is one /metrics scrape: every sample keyed by its name and
// label set as exposed.
type series map[string]float64

// scrape reads GET /metrics.
func (p *procs) scrape(ctx context.Context, s *server) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", s.base, err)
	}
	defer resp.Body.Close()
	return parseSeries(resp.Body)
}

// parseSeries parses a Prometheus text exposition.
func parseSeries(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// get returns the sample named key ("name" or "name{labels}"), 0 when
// the process does not expose it.
func (s series) get(key string) float64 { return s[key] }

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
