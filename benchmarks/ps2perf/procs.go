package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
)

// env is what every workload needs from the invocation.
type env struct {
	root  string // repo root: BENCHMARK.json, go.mod, cmd/
	bin   string // where ps2serve and ps2worker are built
	out   string // where span files are written
	smoke bool   // ~1 % sizes, for the compile-and-smoke test
	build float64
}

// buildCLIs builds the two programs the TCP workloads run, from source, and
// records how long the build took (near zero once the build cache is warm).
func (e *env) buildCLIs() error {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/ps2serve", "./cmd/ps2worker")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/ps2serve ./cmd/ps2worker: %v\n%s", err, out)
	}
	e.build = time.Since(start).Seconds()
	return nil
}

// usage is what a process cost: CPU time from its rusage, peak resident set
// from /proc. The rusage peak is of no use for a child: it carries over the
// resident set of the process that forked it, so every child would weigh at
// least as much as the benchmark itself.
type usage struct {
	cpuSec float64
	rssMB  float64
}

func cpuOf(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// selfCPU is the benchmark process's own user+sys CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

// peakRSSMB reads a live process's peak resident set (VmHWM) from /proc, or
// returns 0 when the process is gone.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetSelfPeakRSS restarts the kernel's peak-RSS mark of the benchmark
// process, after handing freed memory back, so that the next reading is the
// peak of what runs from here on and not of an earlier repetition.
func resetSelfPeakRSS() {
	debug.FreeOSMemory()
	// Best effort: where the file is not writable the peak stays cumulative.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// childAttr makes the kernel kill a child if the benchmark dies first, so no
// server outlives a crashed or killed run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// newClient returns a wire client with ps2worker's retry schedule: the
// defaults with its -timeout-sec of 5 s, so that a wide step or a full-row
// pull is not taken for a lost message and sent again.
func newClient(addrs []string) *wire.Client {
	retry := wire.DefaultRetry()
	retry.Timeout = 5 * time.Second
	return wire.NewClient(addrs, retry)
}

// server is one running ps2serve process.
type server struct {
	cmd  *exec.Cmd
	addr string
}

// startServer spawns ps2serve on a free loopback port and returns once it has
// printed the address it listens on.
func (e *env) startServer() (*server, error) {
	cmd := exec.Command(filepath.Join(e.bin, "ps2serve"), "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	const prefix = "ps2serve listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("ps2serve did not report its address (got %q, %v)", line, err)
	}
	return &server{cmd: cmd, addr: strings.TrimSpace(strings.TrimPrefix(line, prefix))}, nil
}

// stop ends the server with SIGTERM, waits for it and returns what it cost.
// Wait closes the stdout pipe, so the server's farewell line needs no reader.
func (s *server) stop() usage {
	rss := peakRSSMB(s.cmd.Process.Pid)
	s.cmd.Process.Signal(syscall.SIGTERM)
	s.cmd.Wait()
	return usage{cpuSec: cpuOf(s.cmd.ProcessState), rssMB: rss}
}

// cluster is the set of ps2serve processes of one repetition plus a client
// of the benchmark's own for set-up, probes and verification.
type cluster struct {
	servers  []*server
	client   *wire.Client
	readyMS  float64          // spawn of the first server → every server answered a ping
	rounds   int              // readings of the servers' counters so far
	perRound wire.ServerStats // what one reading adds to the counters
}

func (e *env) startCluster(n int) (*cluster, error) {
	start := time.Now()
	cl := &cluster{}
	for i := 0; i < n; i++ {
		s, err := e.startServer()
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.servers = append(cl.servers, s)
	}
	cl.client = newClient(cl.addrs())
	for i := range cl.servers {
		if _, err := cl.client.Ping(i, nil); err != nil {
			cl.stop()
			return nil, fmt.Errorf("ping server %d: %w", i, err)
		}
	}
	cl.readyMS = float64(time.Since(start)) / 1e6
	return cl, nil
}

func (cl *cluster) addrs() []string {
	out := make([]string, len(cl.servers))
	for i, s := range cl.servers {
		out[i] = s.addr
	}
	return out
}

// stop closes the client, ends every server and returns their summed cost.
func (cl *cluster) stop() usage {
	if cl.client != nil {
		cl.client.Close()
	}
	var total usage
	for _, s := range cl.servers {
		u := s.stop()
		total.cpuSec += u.cpuSec
		total.rssMB += u.rssMB
	}
	cl.servers = nil
	return total
}

// serverTotals sums the traffic counters of every server.
func (cl *cluster) serverTotals() (wire.ServerStats, error) {
	var sum wire.ServerStats
	for i := range cl.servers {
		st, err := cl.client.ServerStats(i)
		if err != nil {
			return sum, fmt.Errorf("stats of server %d: %w", i, err)
		}
		sum = addStats(sum, st, 1)
	}
	cl.rounds++
	return sum, nil
}

// addStats returns a + k·b.
func addStats(a, b wire.ServerStats, k int) wire.ServerStats {
	return wire.ServerStats{
		Requests:  a.Requests + uint64(k)*b.Requests,
		DedupHits: a.DedupHits + uint64(k)*b.DedupHits,
		BytesIn:   a.BytesIn + uint64(k)*b.BytesIn,
		BytesOut:  a.BytesOut + uint64(k)*b.BytesOut,
	}
}

// counterMark is a reading of the servers' counters and which reading it was.
type counterMark struct {
	stats wire.ServerStats
	round int
}

// mark reads the counters while nothing else talks to the servers, and
// learns what one reading itself adds to them.
func (cl *cluster) mark() (counterMark, error) {
	first, err := cl.serverTotals()
	if err != nil {
		return counterMark{}, err
	}
	second, err := cl.serverTotals()
	if err != nil {
		return counterMark{}, err
	}
	cl.perRound = addStats(second, first, -1)
	return counterMark{stats: second, round: cl.rounds}, nil
}

// trafficSince returns what the servers counted since from, the readings'
// own frames taken out. A server adds a frame's bytes after it has sent the
// response, on that connection's goroutine, so right after a client got its
// last answer the counters may still lack it: read until two readings in a
// row differ by nothing but the reading itself.
func (cl *cluster) trafficSince(from counterMark) (wire.ServerStats, error) {
	prev, err := cl.serverTotals()
	if err != nil {
		return prev, err
	}
	for try := 0; try < 500; try++ {
		time.Sleep(time.Millisecond)
		cur, err := cl.serverTotals()
		if err != nil {
			return cur, err
		}
		if addStats(cur, prev, -1) == cl.perRound {
			own := addStats(wire.ServerStats{}, cl.perRound, cl.rounds-from.round)
			return addStats(addStats(cur, from.stats, -1), own, -1), nil
		}
		prev = cur
	}
	return prev, fmt.Errorf("the servers' counters never settled")
}

// workerRun is one finished ps2worker process.
type workerRun struct {
	wallSec   float64 // exec → exit by the benchmark's clock
	usage     usage
	finalLoss float64
	calls     int
	attempts  int
	timeouts  int
}

var (
	workerLossRE = regexp.MustCompile(`final full-dataset loss ([0-9.eE+-]+) over`)
	workerRPCRE  = regexp.MustCompile(`rpc: (\d+) calls \((\d+) attempts, (\d+) timeouts\)`)
)

// runWorker runs ps2worker to completion with the given flags. A non-zero
// exit is an error and carries the program's stderr.
func (e *env) runWorker(args ...string) (*workerRun, error) {
	cmd := exec.Command(filepath.Join(e.bin, "ps2worker"), args...)
	cmd.SysProcAttr = childAttr()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The peak resident set can only be read while the process lives: look
	// every 50 ms and keep the last reading.
	exited := make(chan struct{})
	var rss float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := peakRSSMB(cmd.Process.Pid); v > rss {
				rss = v
			}
			select {
			case <-exited:
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start).Seconds()
	close(exited)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("ps2worker %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	w := &workerRun{wallSec: wall, usage: usage{cpuSec: cpuOf(cmd.ProcessState), rssMB: rss}}
	out := stdout.String()
	if m := workerLossRE.FindStringSubmatch(out); m != nil {
		w.finalLoss, _ = strconv.ParseFloat(m[1], 64)
	} else {
		return nil, fmt.Errorf("ps2worker printed no final loss")
	}
	if m := workerRPCRE.FindStringSubmatch(out); m != nil {
		w.calls, _ = strconv.Atoi(m[1])
		w.attempts, _ = strconv.Atoi(m[2])
		w.timeouts, _ = strconv.Atoi(m[3])
	} else {
		return nil, fmt.Errorf("ps2worker printed no rpc line")
	}
	return w, nil
}
