package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
)

// serveFlags are the `rulekit serve` flags of every run besides -addr
// and -data-dir; README.md lists them.
var serveFlags = []string{"-sync=false", "-lame-duck=0s", "-compile-timeout=30s"}

// server is one `rulekit serve` subprocess on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error

	logMu sync.Mutex
	log   bytes.Buffer // tail of the server's stderr, for diagnostics
}

// startServer boots `rulekit serve` on dataDir (in-memory when empty)
// and waits for its listening line.
func startServer(bin, dataDir string) (*server, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, serveFlags...)
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	// The server must not outlive the benchmark, even if the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	cmd.Stderr = (*logTail)(s)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case s.base = <-addr:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("server exited during boot: %v\n%s", s.err, s.logText())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server did not report its address within 30s")
	}
}

type logTail server

func (l *logTail) Write(p []byte) (int, error) {
	l.logMu.Lock()
	defer l.logMu.Unlock()
	l.log.Write(p)
	if n := l.log.Len(); n > 64<<10 {
		l.log.Next(n - 32<<10)
	}
	return len(p), nil
}

func (s *server) logText() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.log.String()
}

// stop sends SIGTERM (graceful drain) and waits for exit, killing the
// process if it has not exited after 30s.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		if s.err != nil {
			return fmt.Errorf("server exit after SIGTERM: %v\n%s", s.err, s.logText())
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("server did not drain within 30s of SIGTERM; killed")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// vmHWMMB is the server's peak resident set size.
func (s *server) vmHWMMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// client is one closed-loop caller: a single keep-alive connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	err    error
}

func (c *client) post(path string, body any) reply {
	blob, err := json.Marshal(body)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(blob))
	return readReply(resp, err)
}

func (c *client) get(path string) reply {
	resp, err := c.http.Get(c.base + path)
	return readReply(resp, err)
}

func readReply(resp *http.Response, err error) reply {
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, err: err}
}

// metrics reads the server's /metrics counters.
func (c *client) metrics() (map[string]int64, error) {
	r := c.get("/metrics")
	if r.err != nil || r.status != 200 {
		return nil, fmt.Errorf("/metrics: status %d err %v", r.status, r.err)
	}
	m := map[string]int64{}
	return m, json.Unmarshal(r.body, &m)
}

// sseFrame is one server-sent event of a subscription stream.
type sseFrame struct {
	event   string
	version uint64
	answers [][]string // snapshot
	added   [][]string // delta
	removed [][]string // delta
	errText string     // error
	at      time.Time
}

// subscribe opens an SSE subscription and delivers every frame to
// onFrame from a reader goroutine; cancel ends the stream and waits for
// the reader. The first frame (the snapshot) has arrived when subscribe
// returns.
func subscribe(base, dbID, theoryID, cq string, onFrame func(sseFrame)) (cancel func(), err error) {
	ctx, stop := context.WithCancel(context.Background())
	blob, _ := json.Marshal(map[string]string{"theory_id": theoryID, "cq": cq})
	req, _ := http.NewRequestWithContext(ctx, "POST", base+"/v1/dbs/"+dbID+"/subscribe", bytes.NewReader(blob))
	req.Header.Set("Content-Type", "application/json")
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	resp, err := hc.Do(req)
	if err != nil {
		stop()
		return nil, err
	}
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		stop()
		return nil, fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, b)
	}
	first := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		var once sync.Once
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f := parseFrame(event, []byte(strings.TrimPrefix(line, "data: ")))
				f.at = time.Now()
				onFrame(f)
				once.Do(func() { close(first) })
			}
		}
		once.Do(func() { close(first) })
	}()
	select {
	case <-first:
	case <-time.After(30 * time.Second):
	}
	return func() { stop(); <-done; hc.CloseIdleConnections() }, nil
}

func parseFrame(event string, data []byte) sseFrame {
	var v struct {
		Version uint64     `json:"version"`
		Answers [][]string `json:"answers"`
		Added   [][]string `json:"added"`
		Removed [][]string `json:"removed"`
		Error   string     `json:"error"`
	}
	f := sseFrame{event: event}
	if err := json.Unmarshal(data, &v); err != nil {
		f.event, f.errText = "malformed", err.Error()
		return f
	}
	f.version, f.answers, f.added, f.removed, f.errText = v.Version, v.Answers, v.Added, v.Removed, v.Error
	return f
}
