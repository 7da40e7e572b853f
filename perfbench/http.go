package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/server"
)

// roleEnv selects the server role when the benchmark binary starts
// itself as http_serve's server process.
const roleEnv = "XQPERF_ROLE"

// readyMsg is the server process's first line: where it listens and
// what its set-up cost.
type readyMsg struct {
	Addr      string  `json:"addr"`
	SetupS    float64 `json:"setup_s"`
	LoadS     float64 `json:"load_s"`
	HeapBytes float64 `json:"heap_bytes"`
	Docs      int     `json:"docs"`
}

// serveMain is the server process: it builds the database from the
// corpus directory like the in-process workloads do (warmed with the
// indexed_mix shapes, the only stream http_serve sends), serves it with the
// repository's HTTP server on a loopback port, and reads commands on
// stdin: MARK starts a runtime-counter window, STOP prints the window's
// deltas, GC collects garbage (so a write window starts without the
// reads' garbage, as in-process), SETUP times one more set-up on a
// database it discards, and end of input shuts the server down.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fs.String("corpus", "", "directory of .xml files to load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	warm := warmup(indexed)
	db, n, setupS, loadS, heap, err := timedSetups(*dir, 1, warm)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{DB: db})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ConnContext: srv.ConnContext, ConnState: srv.ConnState}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ready, _ := json.Marshal(readyMsg{Addr: ln.Addr().String(), SetupS: setupS[0], LoadS: loadS[0], HeapBytes: heap, Docs: n})
	fmt.Printf("READY %s\n", ready)

	in := bufio.NewScanner(os.Stdin)
	var mark rtSample
	for in.Scan() {
		switch in.Text() {
		case "MARK":
			mark = readRT()
		case "STOP":
			b, _ := json.Marshal(readRT().sub(mark)) // plain floats always marshal
			fmt.Printf("STATS %s\n", b)
		case "GC":
			runtime.GC()
			fmt.Println("GCDONE ")
		case "SETUP":
			var times [2]float64
			var err error
			if times[0], times[1], err = extraSetup(*dir, warm); err != nil {
				return err
			}
			b, _ := json.Marshal(times) // plain floats always marshal
			fmt.Printf("SETUPDONE %s\n", b)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// serverProc is the client's handle on the server process.
type serverProc struct {
	once  sync.Once
	err   error
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	ready readyMsg
}

func startServer(dir string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-corpus", dir)
	cmd.Env = append(os.Environ(), roleEnv+"=serve")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The server prints one READY line and one STATS line per STOP; the
	// buffer holds them all so the reader never blocks on a slow client.
	s := &serverProc{cmd: cmd, stdin: stdin, lines: make(chan string, 16)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			s.lines <- sc.Text()
		}
		close(s.lines)
	}()
	line, err := s.expect("READY ", 150*time.Second)
	if err == nil {
		err = json.Unmarshal([]byte(line), &s.ready)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server start: %w", err)
	}
	return s, nil
}

// expect waits for the next line with the given prefix and returns the
// rest of it.
func (s *serverProc) expect(prefix string, within time.Duration) (string, error) {
	timeout := time.After(within)
	for {
		select {
		case line, ok := <-s.lines:
			if !ok {
				return "", fmt.Errorf("server exited before %q", strings.TrimSpace(prefix))
			}
			if rest, found := strings.CutPrefix(line, prefix); found {
				return rest, nil
			}
		case <-timeout:
			return "", fmt.Errorf("no %q from server within %s", strings.TrimSpace(prefix), within)
		}
	}
}

func (s *serverProc) mark() error {
	_, err := io.WriteString(s.stdin, "MARK\n")
	return err
}

// gc has the server collect garbage and waits until it has.
func (s *serverProc) gc() error {
	if _, err := io.WriteString(s.stdin, "GC\n"); err != nil {
		return err
	}
	_, err := s.expect("GCDONE ", 30*time.Second)
	return err
}

// setup has the server time one more set-up and returns its and its
// load's seconds.
func (s *serverProc) setup() (setupS, loadS float64, err error) {
	if _, err := io.WriteString(s.stdin, "SETUP\n"); err != nil {
		return 0, 0, err
	}
	line, err := s.expect("SETUPDONE ", 60*time.Second)
	if err != nil {
		return 0, 0, err
	}
	var times [2]float64
	err = json.Unmarshal([]byte(line), &times)
	return times[0], times[1], err
}

// stop ends the runtime window opened by mark and returns its deltas.
func (s *serverProc) stop() (rtSample, error) {
	if _, err := io.WriteString(s.stdin, "STOP\n"); err != nil {
		return rtSample{}, err
	}
	line, err := s.expect("STATS ", 30*time.Second)
	if err != nil {
		return rtSample{}, err
	}
	var d rtSample
	err = json.Unmarshal([]byte(line), &d)
	return d, err
}

// close ends the server's input, which shuts it down, and waits for it;
// a server that does not exit in time is killed. Later calls return the
// first call's result.
func (s *serverProc) close() error {
	s.once.Do(func() {
		s.stdin.Close()
		done := make(chan error, 1)
		go func() { done <- s.cmd.Wait() }()
		select {
		case s.err = <-done:
		case <-time.After(20 * time.Second):
			s.cmd.Process.Kill()
			<-done
			s.err = errors.New("server did not exit; killed")
		}
	})
	return s.err
}

// sendTimeout is how late an open-loop send may start before it counts
// as a timeout.
const sendTimeout = time.Second

// httpc is the benchmark's HTTP client: at most conns connections.
type httpc struct {
	base string
	cl   *http.Client
}

func newHTTPClient(addr string, conns int) httpc {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return httpc{base: "http://" + addr, cl: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// post sends one statement, naming its language, and decodes the
// answer; any status but 200 is an error.
func (h httpc) post(text string, sql bool) (*server.QueryResponse, error) {
	lang := "xquery"
	if sql {
		lang = "sql"
	}
	body, _ := json.Marshal(server.QueryRequest{Query: text, Language: lang}) // plain struct always marshals
	resp, err := h.cl.Post(h.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out server.QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (h httpc) write(sql string) (int, error) {
	resp, err := h.post(sql, true)
	if err != nil {
		return 0, err
	}
	if resp.Stats == nil {
		return 0, nil
	}
	return resp.Stats.RowsScanned, nil
}

func (h httpc) metrics() (xqdb.MetricsSnapshot, error) {
	var snap xqdb.MetricsSnapshot
	resp, err := h.cl.Get(h.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// openLoop sends the stream's queries on a fixed schedule, rate per
// second in total, over `workers` connections: send i is due at i/rate
// and goes out on whichever connection is free first, at its due time
// or, when every connection is busy, as soon as one frees up. Latency
// runs from the due time, so a stall counts against every request it
// delays; lag records how late each send ran. A send that could not
// start within sendTimeout of its due time counts as a timeout, which
// also bounds how long an overloaded phase runs.
func openLoop(d time.Duration, rate float64, workers int, s stream, h httpc, ans *answers, traced bool, epoch time.Time) *phase {
	logs := make([]*clientLog, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex // orders the draw of the next send and its query
	next := 0
	start := time.Now()
	total := int(d.Seconds() * rate)
	for w := range logs {
		logs[w] = &clientLog{}
		if traced {
			logs[w].spans = newSpanLog(epoch, w)
		}
		wg.Add(1)
		go func(cl *clientLog) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				var q query
				if i < total {
					q = s.next()
				}
				mu.Unlock()
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				} else if -wait > sendTimeout {
					cl.fail("timeout: send %d was due %s ago", i, -wait)
					continue
				}
				sent := time.Now()
				resp, err := h.post(q.text, q.sql)
				end := time.Now()
				cl.lag = append(cl.lag, float64(sent.Sub(due))/1e6)
				if err != nil {
					cl.fail("%s: %v", q.shape, err)
					continue
				}
				if !ans.observe(q, len(resp.Rows)) {
					cl.fail("%s: row count changed: %s", q.shape, q.text)
					continue
				}
				rtt := float64(end.Sub(sent)) / 1e6
				cl.record(q.shape, float64(end.Sub(due))/1e6)
				cl.overhead = append(cl.overhead, rtt-resp.ElapsedMS)
				cl.renderBytes += int64(renderedBytes(resp.Rows))
				if l := cl.spans; l != nil {
					// The response says how long the server spent but not
					// when; the span is placed at the end of the round trip.
					root := l.request("request", due, end)
					rt := l.add("http.roundtrip", root, sent, end)
					l.addNS("server.elapsed", rt, l.at(end)-int64(resp.ElapsedMS*1e6), l.at(end))
				}
			}
		}(logs[w])
	}
	wg.Wait()
	return merge(logs, time.Since(start).Seconds())
}
