// Command bench is the repository benchmark: it builds cmd/priview and
// cmd/priview-serve from the working tree and measures the two paths a
// PriView user feels — publishing a release (`priview build`) and
// answering marginal queries from it over HTTP under sustained load —
// checking every answer on the way. See README.md.
//
//	go run . -seed 1                      # every workload, end-to-end metrics
//	go run . -workload serve-hot -trace   # per-layer metrics, spans to ../.bench_build/trace
//	go run . -runs 10 -out results/a.json # ten seeds, one result file
//	go run . -compare base.json change.json
//
// The flags also take the --flag value form, including --trace 0|1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:])) }

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host    host        `json:"host"`
	Seconds int         `json:"seconds"`
	Trace   bool        `json:"trace"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Seed      int64               `json:"seed"`
	Workloads map[string]*outcome `json:"workloads"`
}

// normalizeArgs rewrites "--trace 0" and "--trace 1" as "-trace=0" and
// "-trace=1": a boolean flag never consumes the next argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	only := fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 24, "measured seconds per workload run")
	trace := fs.Bool("trace", false, "per-layer run: build replay, /metrics scrapes, spans")
	runs := fs.Int("runs", 1, "repeat every workload this many times, with seeds seed, seed+1, …")
	out := fs.String("out", "", "write the host block and every run's results to this JSON file")
	compare := fs.String("compare", "", "base result file to compare the result file given as argument against")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare base.json needs the change's result file as argument")
			return 2
		}
		table, err := compareFiles(filepath.Join(root, "BENCHMARK.json"), *compare, fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Print(table)
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 || *runs < 1 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *only != "all" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want all or one of %s)\n", *only, workloadNames())
			return 2
		}
		selected = []workload{w}
	}

	// The load generator shares the host with the server: two threads
	// at most, matching its two connections.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), clients))
	opt := options{seed: *seed, seconds: *seconds, runs: *runs, trace: *trace, n: dataN}
	res, err := measureAll(root, selected, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line := summary(res)
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// findRoot locates the repository root: the current directory when run
// from the root, its parent when run from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "priview-serve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/priview-serve not found in . or ..; run from the repository root or bench/")
}

// options are one invocation's measurement settings.
type options struct {
	seed    int64
	seconds int
	runs    int
	trace   bool
	n       int // dataset records: dataN, except in the smoke test
}

// measureAll builds the binaries and runs every selected workload
// opt.runs times, printing a table per run.
func measureAll(root string, selected []workload, opt options) (*resultFile, error) {
	out := filepath.Join(root, ".bench_build")
	bins := binaries{priview: filepath.Join(out, "bin", "priview"), serve: filepath.Join(out, "bin", "priview-serve")}
	build := exec.Command("go", "build", "-o", filepath.Join(out, "bin")+string(filepath.Separator), "./cmd/priview", "./cmd/priview-serve")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the binaries: %v\n%s", err, msg)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	logs, err := os.Create(filepath.Join(work, "processes.log"))
	if err != nil {
		return nil, err
	}
	defer logs.Close()

	res := &resultFile{Host: hostInfo(root), Seconds: opt.seconds, Trace: opt.trace}
	fmt.Println(res.Host)
	for r := 0; r < opt.runs; r++ {
		rec := runRecord{Seed: opt.seed + int64(r), Workloads: make(map[string]*outcome)}
		for _, w := range selected {
			e := &env{
				bins: bins, work: work, logs: logs, seed: rec.Seed, seconds: opt.seconds, n: opt.n, trace: opt.trace,
				spans: filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, rec.Seed)),
			}
			o, err := measure(w, e)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rec.Workloads[w.name] = o
			fmt.Print(report(w.name, rec.Seed, o))
		}
		res.Runs = append(res.Runs, rec)
	}
	return res, nil
}

// report renders one workload run for people: every metric with its
// unit, then notes and errors.
func report(name string, seed int64, o *outcome) string {
	var w strings.Builder
	fmt.Fprintf(&w, "== %s seed=%d correct=%v attempted=%d failed=%d\n", name, seed, o.Correct, o.Attempted, o.Failed)
	names := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&w, "  %-28s %14.6g %s\n", k, o.Metrics[k].Value, o.Metrics[k].Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintln(&w, "  #", n)
	}
	for _, err := range o.errs {
		fmt.Fprintln(&w, "  error:", err)
	}
	return w.String()
}

// summary is the result line: one workload run as is; several runs or
// workloads folded into one line with each metric keyed
// "workload:metric" and valued at its median over the runs.
func summary(res *resultFile) result {
	if len(res.Runs) == 1 && len(res.Runs[0].Workloads) == 1 {
		for _, o := range res.Runs[0].Workloads {
			return o.line(res.Trace)
		}
	}
	sum := result{Correct: true, Metrics: make(map[string]metricValue)}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for _, rec := range res.Runs {
		for name, o := range rec.Workloads {
			l := o.line(res.Trace)
			sum.Correct = sum.Correct && l.Correct
			sum.Attempted += l.Attempted
			sum.Failed += l.Failed
			for k, m := range l.Metrics {
				values[name+":"+k] = append(values[name+":"+k], m.Value)
				units[name+":"+k] = m.Unit
			}
		}
	}
	for k, xs := range values {
		sum.Metrics[k] = metricValue{Value: pyMedian(xs), Unit: units[k]}
	}
	return sum
}
