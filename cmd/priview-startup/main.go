// Command priview-startup compares the startup of priview-serve at a
// base commit with the working tree's, stage by stage:
//
//	go run ./cmd/priview-startup -base <commit> [-spawns 15]
//
// It builds priview-serve from a git archive of the base commit and from
// the working tree, writes the benchmark's release shape once (synthetic
// Kosarak, N = 1M, seed 1; covering.Best(32, 8, 3, 1, 4); ε = 1; noise
// seed 1), then spawns one server at a time on it under chrt --idle, as
// the benchmark does, alternating which side goes first in each pair.
// Per side it prints the median and quartiles of spawn → first /healthz
// 200 and of the release.load and release.audit stages that /metrics
// reports, and it prints the host they were measured on.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/noise"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

func main() {
	base := flag.String("base", "", "commit to compare the working tree with (required)")
	spawns := flag.Int("spawns", 15, "servers spawned per side")
	flag.Parse()
	if *base == "" || *spawns < 1 {
		fmt.Fprintln(os.Stderr, "usage: priview-startup -base <commit> [-spawns N]")
		os.Exit(2)
	}
	if err := run(*base, *spawns); err != nil {
		fmt.Fprintln(os.Stderr, "priview-startup:", err)
		os.Exit(1)
	}
}

// side is one build of priview-serve and what its spawns measured, in
// milliseconds.
type side struct {
	name, bin            string
	healthy, load, audit []float64
}

func run(base string, spawns int) error {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("finding the repository root: %w", err)
	}
	root := strings.TrimSpace(string(out))
	if out, err = exec.Command("git", "-C", root, "rev-parse", "--short", base).Output(); err != nil {
		return fmt.Errorf("resolving %s: %w", base, err)
	}
	commit := strings.TrimSpace(string(out))
	tmp, err := os.MkdirTemp("", "priview-startup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	baseTree := filepath.Join(tmp, "base")
	if err := os.Mkdir(baseTree, 0o755); err != nil {
		return err
	}
	archive := fmt.Sprintf("git -C %q archive %q | tar -x -C %q", root, commit, baseTree)
	if out, err := exec.Command("sh", "-c", archive).CombinedOutput(); err != nil {
		return fmt.Errorf("extracting %s: %v\n%s", commit, err, out)
	}
	sides := []*side{{name: "base " + commit}, {name: "working tree"}}
	for i, dir := range []string{baseTree, root} {
		sides[i].bin = filepath.Join(tmp, fmt.Sprintf("priview-serve-%d", i))
		build := exec.Command("go", "build", "-o", sides[i].bin, "./cmd/priview-serve")
		build.Dir = dir
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", sides[i].name, err, out)
		}
	}
	release := filepath.Join(tmp, "release.json")
	if err := writeRelease(release); err != nil {
		return err
	}
	info, err := os.Stat(release)
	if err != nil {
		return err
	}

	for i := 0; i < spawns; i++ {
		order := []*side{sides[0], sides[1]}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, s := range order {
			if err := s.spawn(release); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
	}

	fmt.Println(hostLine())
	fmt.Printf("release: synthetic Kosarak N=1000000 seed 1, covering.Best(32, 8, 3, 1, 4), ε=1, noise seed 1; %d bytes\n", info.Size())
	fmt.Printf("%d spawns per side, alternating which side goes first; healthy is spawn → first /healthz 200\n", spawns)
	fmt.Println("ms, median (q1–q3)")
	fmt.Printf("%-14s %-22s %-22s %-22s\n", "side", "healthy", "release.load", "release.audit")
	for _, s := range sides {
		fmt.Printf("%-14s %-22s %-22s %-22s\n", s.name, summary(s.healthy), summary(s.load), summary(s.audit))
	}
	return nil
}

// writeRelease writes the benchmark's served release shape to path as a
// v2 snapshot.
func writeRelease(path string) error {
	data := synth.Kosarak(1_000_000, 1)
	design := covering.Best(data.Dim(), 8, 3, 1, 4)
	cfg := core.Config{Epsilon: 1, Design: design}
	return snapshot.WriteFile(snapshot.OS{}, path, core.BuildSynopsis(data, cfg, noise.NewStream(1)))
}

// spawn starts one server on release, waits for its first /healthz 200,
// reads its startup stages from /metrics and stops it.
func (s *side) spawn(release string) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return err
	}
	logPath := filepath.Join(filepath.Dir(release), "priview-serve.log")
	log, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer log.Close()
	cmd := exec.Command("chrt", "--idle", "0", s.bin, "-synopsis", release, "-addr", addr)
	cmd.Stdout, cmd.Stderr = log, log
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		// The server may be gone already, and a SIGTERM exit is expected:
		// only the reaping matters.
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	for !healthy(probe, "http://"+addr+"/healthz") {
		if time.Since(start) > 30*time.Second {
			out, err := os.ReadFile(logPath)
			return errors.Join(fmt.Errorf("not healthy after 30s:\n%s", out), err)
		}
		time.Sleep(time.Millisecond)
	}
	s.healthy = append(s.healthy, ms(time.Since(start).Seconds()))
	resp, err := probe.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return err
	}
	stages := fams["priview_stage_seconds"]
	for _, st := range []struct {
		name string
		into *[]float64
	}{{"release.load", &s.load}, {"release.audit", &s.audit}} {
		var sample *telemetry.ParsedSample
		if stages != nil {
			sample = stages.Sample("priview_stage_seconds_sum", map[string]string{"stage": st.name})
		}
		if sample == nil {
			return fmt.Errorf("/metrics has no priview_stage_seconds_sum{stage=%q}", st.name)
		}
		*st.into = append(*st.into, ms(sample.Value))
	}
	return nil
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

func ms(seconds float64) float64 { return 1000 * seconds }

// summary formats the median and quartiles of xs.
func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.1f (%.1f–%.1f)", q2, q1, q3)
}

// quartiles returns the three quartiles of xs by Python's
// statistics.quantiles(xs, n=4), its default "exclusive" method, as the
// benchmark reports its spreads; the second is statistics.median(xs).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := i*(len(s)+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// hostLine names the machine the numbers come from. Servers inherit
// this process's environment, so their GOMAXPROCS is its GOMAXPROCS
// variable when set, and the CPU count otherwise.
func hostLine() string {
	cpu, kernel := "unknown", "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	procs := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		procs = v
	}
	return fmt.Sprintf("host: %s, nproc=%d, GOMAXPROCS=%d, %s, kernel %s", cpu, runtime.NumCPU(), procs, runtime.Version(), kernel)
}
