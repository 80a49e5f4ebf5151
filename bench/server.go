package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"priview/internal/telemetry"
)

// server is one priview-serve process. It gets only -synopsis and -addr:
// every other setting stays at the binary's default, so the benchmark
// measures what an operator running it plainly would get.
type server struct {
	cmd    *exec.Cmd
	base   string
	ready  time.Duration // spawn → first 200 from /healthz
	exited chan struct{}
	err    error // process exit status, valid once exited is closed
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer spawns priview-serve on snapshot and returns once /healthz
// answers 200; the time to that answer is the server's setup time:
// process start, snapshot read, checksum, audit and listen.
func startServer(bin, snapshot string, log io.Writer) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		// The server runs under SCHED_IDLE: it gets every cycle the load
		// generator, which shares its cores, does not want, but never
		// delays the generator's wake-ups. Under the normal policy a busy
		// solver held a woken generator off the CPU for several
		// milliseconds, and the late sends then counted as latency.
		cmd:    exec.Command("chrt", "--idle", "0", bin, "-synopsis", snapshot, "-addr", addr),
		base:   "http://" + addr,
		exited: make(chan struct{}),
	}
	s.cmd.Stdout, s.cmd.Stderr = log, log
	probe := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   time.Second,
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	for {
		if healthy(probe, s.base+"/healthz") {
			s.ready = time.Since(start)
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("priview-serve exited before becoming healthy: %v", s.err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, errors.New("priview-serve not healthy after 30s")
		}
	}
}

// healthy reports whether url answers 200.
func healthy(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM (the server drains and exits) and waits for the
// process; a server that does not exit within 10 s is killed.
func (s *server) stop() {
	//lint:ignore errdiscard the process may already be gone; the wait below is what matters
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		//lint:ignore errdiscard kill after a failed drain; the wait below reaps it
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// procCPU reads the process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100
	// on Linux).
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS reads VmHWM, the process's peak resident set, in MiB.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is the load generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape is one /metrics exposition flattened to sample → value, keyed
// by sample name and sorted labels.
type scrape map[string]float64

func scrapeKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, labels[k])
	}
	return b.String()
}

func parseScrape(r io.Reader) (scrape, error) {
	fams, err := telemetry.ParseText(r)
	if err != nil {
		return nil, err
	}
	out := make(scrape)
	for _, f := range fams {
		for _, s := range f.Samples {
			out[scrapeKey(s.Name, s.Labels)] = s.Value
		}
	}
	return out, nil
}

func (s *server) scrape(c *http.Client) (scrape, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// snap marks a phase boundary of a traced run: it scrapes /metrics and
// reads the server's CPU time.
func (s *server) snap(c *http.Client) (scrape, time.Duration, error) {
	m, err := s.scrape(c)
	if err != nil {
		return nil, 0, err
	}
	cpu, err := procCPU(s.cmd.Process.Pid)
	return m, cpu, err
}

// diff returns after − before for every sample of after; counters and
// histogram sums/counts become the activity between the two scrapes.
func (after scrape) diff(before scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// get reads one sample, with labels given as alternating names and
// values.
func (s scrape) get(name string, labels ...string) float64 {
	m := make(map[string]string, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		m[labels[i]] = labels[i+1]
	}
	return s[scrapeKey(name, m)]
}

// add accumulates another diff into s.
func (s scrape) add(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}
