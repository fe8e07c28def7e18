package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

	spv "github.com/authhints/spv"
)

// server is one spvserve process under test.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *logSink
}

// live tracks started processes so a signal can stop them all.
var live struct {
	sync.Mutex
	procs map[*server]bool
}

// startServer launches bin with args on a free loopback port. With gctrace
// the runtime's per-GC summary lines are parsed from its standard error.
func startServer(bin string, args []string, gctrace bool) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	sink := &logSink{}
	cmd.Stdout, cmd.Stderr = sink, sink
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: sink}
	go func() {
		_ = cmd.Wait() // the exit status is reported by stop's caller via the log
		close(s.exited)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*server]bool)
	}
	live.procs[s] = true
	live.Unlock()
	return s, nil
}

// stop sends SIGTERM (the daemon drains and exits), escalates to SIGKILL
// after 15 s, and returns once the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	live.Lock()
	delete(live.procs, s)
	live.Unlock()
}

// stopAll stops every live server; used on signals and fatal errors.
func stopAll() {
	live.Lock()
	var ss []*server
	for s := range live.procs {
		ss = append(ss, s)
	}
	live.Unlock()
	for _, s := range ss {
		s.stop()
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procStatus reads one "Key: value kB" field of /proc/<pid>/status, in MB.
func (s *server) procStatusMB(key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, s.pid())
}

// clockTicks is USER_HZ, 100 on every Linux ABI the toolchain targets.
const clockTicks = 100

// cpuTime is the process's utime+stime from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hostCPU reads the machine-wide "cpu" line of /proc/stat and returns
// the ticks stolen by the hypervisor and the total ticks.
func hostCPU() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total, nil
}

// gcEvent is one GODEBUG=gctrace=1 line: stop-the-world pause (sweep
// termination + mark termination, wall clock) and heap size at GC start.
type gcEvent struct {
	At      time.Time
	PauseMs float64
	HeapMB  float64
}

// logSink keeps the server's last log lines for error reports and parses
// gctrace lines as they arrive.
type logSink struct {
	mu   sync.Mutex
	part []byte
	tail []string
	gcs  []gcEvent
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.part = append(l.part, p...)
	for {
		i := bytes.IndexByte(l.part, '\n')
		if i < 0 {
			break
		}
		line := string(l.part[:i])
		l.part = l.part[i+1:]
		if ev, ok := parseGCLine(line); ok {
			l.gcs = append(l.gcs, ev)
			continue
		}
		l.tail = append(l.tail, line)
		if len(l.tail) > 20 {
			l.tail = l.tail[1:]
		}
	}
	return len(p), nil
}

func (l *logSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, "\n")
}

// gcEvents returns the GCs logged in [from, to].
func (l *logSink) gcEvents(from, to time.Time) []gcEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []gcEvent
	for _, ev := range l.gcs {
		if !ev.At.Before(from) && !ev.At.After(to) {
			out = append(out, ev)
		}
	}
	return out
}

// parseGCLine parses "gc 7 @1.2s 3%: 0.02+1.1+0.01 ms clock, ... 12->13->6 MB, ...".
func parseGCLine(line string) (gcEvent, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return gcEvent{}, false
	}
	_, rest, ok := strings.Cut(line, "%: ")
	if !ok {
		return gcEvent{}, false
	}
	clock, _, ok := strings.Cut(rest, " ms clock")
	if !ok {
		return gcEvent{}, false
	}
	phases := strings.Split(clock, "+")
	if len(phases) != 3 {
		return gcEvent{}, false
	}
	stw1, err1 := strconv.ParseFloat(phases[0], 64)
	stw2, err2 := strconv.ParseFloat(phases[2], 64)
	ev := gcEvent{At: time.Now(), PauseMs: stw1 + stw2}
	for _, field := range strings.Split(rest, ", ") {
		if heap, ok := strings.CutSuffix(field, " MB"); ok && strings.Contains(heap, "->") {
			ev.HeapMB, _ = strconv.ParseFloat(strings.Split(heap, "->")[0], 64)
		}
	}
	return ev, err1 == nil && err2 == nil
}

// newClient returns a client holding at most conns connections to one
// host. Compression is off so byte counts are wire bytes.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: requestTimeout,
	}
}

// requestTimeout bounds one HTTP exchange; it is also the latency a failed
// request reports, since failures miss every limit.
const requestTimeout = 15 * time.Second

// bootReady launches the server and returns once it has answered and
// the benchmark has verified one query per method, with the elapsed time
// (the setup_s sample) and the verifier it served.
func bootReady(bin string, args []string, gctrace bool, probe pair) (*server, time.Duration, *spv.Verifier, error) {
	start := time.Now()
	s, err := startServer(bin, args, gctrace)
	if err != nil {
		return nil, 0, nil, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	var v *spv.Verifier
	for _, m := range methods {
		for {
			if time.Since(start) > 150*time.Second {
				s.stop()
				return nil, 0, nil, fmt.Errorf("server not ready after 150s; log:\n%s", s.log)
			}
			select {
			case <-s.exited:
				s.stop()
				return nil, 0, nil, fmt.Errorf("server exited during start-up; log:\n%s", s.log)
			default:
			}
			wire, dist, err := getProof(context.Background(), c, s.base, spv.ServeQuery{Method: m, VS: probe.S, VT: probe.T})
			var ne *net.OpError
			if errors.As(err, &ne) {
				time.Sleep(2 * time.Millisecond) // not listening yet
				continue
			}
			if err == nil && v == nil {
				v, err = fetchVerifier(c, s.base)
			}
			if err == nil {
				err = verifyWire(v, m, probe.S, probe.T, wire, dist)
			}
			if err != nil {
				s.stop()
				return nil, 0, nil, fmt.Errorf("set-up probe %s: %w", m, err)
			}
			break
		}
	}
	return s, time.Since(start), v, nil
}

// getProof performs one binary /query and returns the wire and the
// distance header.
func getProof(ctx context.Context, c *http.Client, base string, q spv.ServeQuery) ([]byte, string, error) {
	url := fmt.Sprintf("%s/query?method=%s&vs=%d&vt=%d&format=binary", base, q.Method, q.VS, q.VT)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", &statusError{resp.StatusCode, strings.TrimSpace(string(body))}
	}
	return body, resp.Header.Get("X-Spv-Dist"), nil
}

type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

func fetchVerifier(c *http.Client, base string) (*spv.Verifier, error) {
	resp, err := c.Get(base + "/verifier")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	pem, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return spv.ParseVerifierPEM(pem)
}

func fetchStats(c *http.Client, base string) (spv.ServeStats, error) {
	var st spv.ServeStats
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}
