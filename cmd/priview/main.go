// Command priview is the end-to-end CLI for the PriView mechanism:
// generate (synthetic) datasets, plan a view set, build a differentially
// private synopsis, and query arbitrary k-way marginals from it.
//
// Usage:
//
//	priview generate -dataset kosarak -n 100000 -seed 1 -out data.txt
//	priview plan     -in data.txt -eps 1.0
//	priview build    -in data.txt -eps 1.0 -out synopsis.json
//	priview query    -synopsis synopsis.json -attrs 3,7,19,30
//	priview query    -server http://localhost:8080 -attrs "0,1;4;2,5,8"
//
// Subcommands:
//
//	generate  write a synthetic dataset (kosarak, aol, msnbc, mchain,
//	          uniform) in the line-oriented bit-string format
//	plan      print the covering design §4.5 planning would choose
//	build     construct a private synopsis and write it as a
//	          checksummed v2 snapshot
//	query     reconstruct one marginal, or summarize a batch of them,
//	          from a saved synopsis or a priview-serve server
//	audit     check a saved synopsis against the release invariants
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"priview/internal/audit"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/dataset/synth"
	"priview/internal/noise"
	"priview/internal/server"
	"priview/internal/snapshot"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "import":
		err = cmdImport(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "design":
		err = cmdDesign(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "audit":
		err = cmdAudit(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "priview: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "priview: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: priview <generate|import|plan|build|query|audit> [flags]
  generate -dataset kosarak|aol|msnbc|mchain|uniform -n N [-order i] [-seed s] -out FILE
  import   -csv FILE [-header] [-max-attrs M] [-min-count C] -out FILE
  plan     -in FILE -eps E [-seed s]
  design   -d D -ell L -t T [-seed s] -out FILE       (export; La Jolla text format)
  build    -in FILE -eps E [-t 0|2|3|4] [-ell L] [-design FILE] [-seed s] -out FILE
  query    -synopsis FILE | -server URL  -attrs a,b,c[;d,e] | -all-k K
           [-method CME|CLN|LP|CLP] [-timeout D] [-batch-workers W]  (local mode)
           [-retry-budget R] [-priority high]                         (remote mode)
  audit    [-json] FILE                               (exit 1 if invariants are violated)`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	name := fs.String("dataset", "kosarak", "dataset family: kosarak, aol, msnbc, mchain, uniform")
	n := fs.Int("n", 100000, "number of records")
	order := fs.Int("order", 3, "markov-chain order (mchain only)")
	dim := fs.Int("d", 16, "dimensions (uniform only)")
	p := fs.Float64("p", 0.3, "bit density (uniform only)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}
	var data *dataset.Dataset
	switch *name {
	case "kosarak":
		data = synth.Kosarak(*n, *seed)
	case "aol":
		data = synth.AOL(*n, *seed)
	case "msnbc":
		data = synth.MSNBC(*n, *seed)
	case "mchain":
		data = synth.MChain(*order, *n, *seed)
	case "uniform":
		data = synth.Uniform(*dim, *n, *p, *seed)
	default:
		return fmt.Errorf("generate: unknown dataset %q", *name)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := data.WriteTo(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: d=%d N=%d\n", *out, data.Dim(), data.Len())
	return nil
}

// cmdImport one-hot encodes a categorical CSV into the binary dataset
// format, printing the attribute legend so query results can be mapped
// back to (column, value) pairs.
func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	csvPath := fs.String("csv", "", "categorical CSV input (required)")
	header := fs.Bool("header", false, "treat the first row as column names")
	maxAttrs := fs.Int("max-attrs", 64, "keep at most this many (column,value) attributes")
	minCount := fs.Int("min-count", 0, "drop (column,value) pairs occurring fewer times")
	out := fs.String("out", "", "output dataset file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvPath == "" || *out == "" {
		return fmt.Errorf("import: -csv and -out are required")
	}
	in, err := os.Open(*csvPath)
	if err != nil {
		return err
	}
	defer in.Close()
	data, spec, err := dataset.FromCSV(in, dataset.OneHotOptions{
		HasHeader: *header, MaxAttrs: *maxAttrs, MinCount: *minCount,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := data.WriteTo(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: d=%d N=%d\nattribute legend:\n", *out, data.Dim(), data.Len())
	for i := 0; i < data.Dim(); i++ {
		fmt.Printf("  %2d  %s\n", i, spec.AttrName(i))
	}
	return nil
}

func loadDataset(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadFrom(f)
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	in := fs.String("in", "", "dataset file (required)")
	eps := fs.Float64("eps", 1.0, "privacy budget")
	seed := fs.Int64("seed", 1, "design-construction seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("plan: -in is required")
	}
	data, err := loadDataset(*in)
	if err != nil {
		return err
	}
	// Use a tiny budget slice for the count, as §4.5 suggests.
	nEst := core.NoisyCount(data, 0.001, noise.NewStream(*seed))
	plan := core.PlanDesign(data.Dim(), int(nEst), *eps, *seed)
	fmt.Printf("dataset: d=%d, N≈%.0f (noisy estimate)\n", data.Dim(), nEst)
	fmt.Printf("chosen design: %s (t=%d, ℓ=%d, w=%d)\n",
		plan.Design.Name(), plan.Design.T, plan.Design.L, plan.Design.W())
	fmt.Printf("predicted noise error (Eq. 5): %.5f (target band 0.001-0.003)\n", plan.NoiseError)
	return nil
}

// cmdDesign constructs a covering design and writes it in the La Jolla
// text format, for inspection or hand-tuning.
func cmdDesign(args []string) error {
	fs := flag.NewFlagSet("design", flag.ExitOnError)
	d := fs.Int("d", 32, "number of attributes")
	ell := fs.Int("ell", core.DefaultEll, "block size ℓ")
	t := fs.Int("t", 2, "coverage t")
	seed := fs.Int64("seed", 1, "construction seed")
	out := fs.String("out", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("design: -out is required")
	}
	l := *ell
	if l > *d {
		l = *d
	}
	dg := covering.Best(*d, l, *t, *seed, 4)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := covering.WriteDesign(f, dg); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s on %d points\n", *out, dg.Name(), dg.D)
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "dataset file (required)")
	out := fs.String("out", "", "synopsis output file (required)")
	eps := fs.Float64("eps", 1.0, "privacy budget")
	t := fs.Int("t", 0, "coverage t (0 = plan automatically)")
	ell := fs.Int("ell", core.DefaultEll, "view size ℓ")
	designPath := fs.String("design", "", "load the view set from a block-per-line design file (e.g. from the La Jolla repository); -t must state its coverage")
	// -snapshot selects nothing: build always writes the v2 container.
	// It stays defined so existing command lines, bench/measure.go's
	// among them, still parse.
	fs.Bool("snapshot", true, "no effect: build always writes a checksummed v2 snapshot")
	seed := fs.Int64("seed", 1, "noise/design seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("build: -in and -out are required")
	}
	data, err := loadDataset(*in)
	if err != nil {
		return err
	}
	var design *covering.Design
	switch {
	case *designPath != "":
		if *t == 0 {
			return fmt.Errorf("build: -design requires -t (the file's coverage guarantee)")
		}
		f, err := os.Open(*designPath)
		if err != nil {
			return err
		}
		design, err = covering.ReadDesign(f, data.Dim(), *t)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	case *t == 0:
		plan := core.PlanDesign(data.Dim(), data.Len(), *eps, *seed)
		design = plan.Design
	default:
		l := *ell
		if l > data.Dim() {
			l = data.Dim()
		}
		design = covering.Best(data.Dim(), l, *t, *seed, 4)
	}
	syn := core.BuildSynopsis(data, core.Config{Epsilon: *eps, Design: design}, noise.NewStream(*seed))
	// Audit the fresh release before publishing: a post-processing bug
	// must fail the build, not surface later from a serving replica.
	report := audit.Check(syn, audit.Options{})
	if err := report.Err(); err != nil {
		return fmt.Errorf("build: freshly built synopsis failed its release audit: %w", err)
	}
	if err := snapshot.WriteFile(snapshot.OS{}, *out, syn); err != nil {
		return err
	}
	fmt.Printf("built synopsis with %s under ε=%g; wrote %s\n", design.Name(), *eps, *out)
	return nil
}

// cmdAudit checks a saved synopsis (bare v1 or checksummed v2) against
// the release invariants, printing the report and failing (exit 1) on
// any Error-severity finding.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("audit: usage: priview audit [-json] FILE")
	}
	path := fs.Arg(0)
	syn, err := snapshot.ReadFileFS(snapshot.OS{}, path)
	if err != nil {
		return fmt.Errorf("audit: %s: %w", path, err)
	}
	report := audit.Check(syn, audit.Options{})
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(report); err != nil {
			return err
		}
	} else {
		fmt.Print(report.String())
	}
	if err := report.Err(); err != nil {
		return fmt.Errorf("audit: %s: %w", path, err)
	}
	return nil
}

// parseAttrSets parses the -attrs syntax: comma-separated attribute
// indices, with ';' separating the sets of a batch.
func parseAttrSets(raw string) ([][]int, error) {
	var sets [][]int
	for _, group := range strings.Split(raw, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		var attrs []int
		for _, part := range strings.Split(group, ",") {
			a, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad attribute %q", part)
			}
			attrs = append(attrs, a)
		}
		sort.Ints(attrs)
		sets = append(sets, attrs)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("no attribute sets")
	}
	return sets, nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	synPath := fs.String("synopsis", "", "synopsis file (local mode)")
	serverURL := fs.String("server", "", "priview-serve base URL (remote mode, e.g. http://host:8080 or http://host:8080/v1/name for a release)")
	attrsFlag := fs.String("attrs", "", `comma-separated attribute indices; separate sets with ';' to batch (e.g. "0,1;1,3;2")`)
	allK := fs.Int("all-k", 0, "batch every non-empty marginal of up to this many attributes (alternative to -attrs)")
	method := fs.String("method", "CME", "reconstruction method: CME, CLN, LP, CLP")
	timeout := fs.Duration("timeout", 30*time.Second, "end-to-end deadline; remote mode propagates it to the server")
	retryBudget := fs.Float64("retry-budget", 0, "remote mode: retries allowed per successful request (e.g. 0.1 ≈ 10% retry amplification; 0 disables budgeting)")
	priority := fs.String("priority", "", `remote mode: request priority ("high" bypasses server brownout)`)
	batchWorkers := fs.Int("batch-workers", 0, "local mode: solver goroutines a batch fans over (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*synPath == "") == (*serverURL == "") {
		return fmt.Errorf("query: exactly one of -synopsis or -server is required")
	}
	if (*attrsFlag == "") == (*allK == 0) {
		return fmt.Errorf("query: exactly one of -attrs or -all-k is required")
	}
	m := core.CME
	if *method != "" {
		var err error
		if m, err = core.ParseMethod(*method); err != nil {
			return fmt.Errorf("query: %w", err)
		}
	}
	var reqs []core.BatchRequest
	if *attrsFlag != "" {
		sets, err := parseAttrSets(*attrsFlag)
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
		for _, attrs := range sets {
			reqs = append(reqs, core.BatchRequest{Attrs: attrs, Method: m})
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// Both modes answer every query, one set or many, through one batch
	// call; -all-k needs the dimension first.
	var query func(context.Context, []core.BatchRequest) ([]core.BatchResult, error)
	var d int
	if *serverURL != "" {
		c := server.NewClient(*serverURL, nil, server.RetryPolicy{RetryBudget: *retryBudget})
		c.SetPriority(*priority)
		query = c.MarginalsContext
		if *allK > 0 {
			info, err := c.InfoContext(ctx)
			if err != nil {
				return fmt.Errorf("query: %w", err)
			}
			d = info.D
		}
	} else {
		syn, err := snapshot.ReadFileFS(snapshot.OS{}, *synPath)
		if err != nil {
			return err
		}
		query = func(ctx context.Context, reqs []core.BatchRequest) ([]core.BatchResult, error) {
			return syn.QueryBatch(ctx, reqs, core.BatchOptions{Workers: *batchWorkers})
		}
		if *allK > 0 {
			dg := syn.Design()
			if dg == nil {
				return fmt.Errorf("query: -all-k needs a synopsis with a recorded design")
			}
			d = dg.D
		}
	}
	if *allK > 0 {
		reqs = core.AllKWay(d, *allK, m)
	}
	start := time.Now()
	results, err := query(ctx, reqs)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if len(results) == 1 {
		printMarginal(results[0])
		return nil
	}
	printBatch(results, time.Since(start))
	return nil
}

// printMarginal writes the full cell listing of one marginal.
func printMarginal(res core.BatchResult) {
	table := res.Table
	fmt.Printf("marginal over attributes %v (total %.1f):%s\n", table.Attrs, table.Total(), degradedMark(res))
	for i, v := range table.Cells {
		assignment := make([]byte, len(table.Attrs))
		for j := range table.Attrs {
			assignment[j] = '0' + byte(i>>uint(j)&1)
		}
		fmt.Printf("  %s  %.2f\n", assignment, v)
	}
}

// printBatch summarizes a batched answer: one line per marginal plus
// the wall-clock footer (full cell dumps of hundreds of tables help
// nobody; re-query a single set to inspect cells).
func printBatch(results []core.BatchResult, elapsed time.Duration) {
	degraded := 0
	for _, res := range results {
		if res.Degraded() {
			degraded++
		}
		fmt.Printf("  %v  total %.1f%s\n", res.Table.Attrs, res.Table.Total(), degradedMark(res))
	}
	fmt.Printf("%d marginals (%d degraded) in %v\n", len(results), degraded, elapsed.Round(time.Millisecond))
}

// degradedMark tags an answer the numerical fallback chain produced.
func degradedMark(res core.BatchResult) string {
	if res.Degraded() {
		return "  [degraded]"
	}
	return ""
}
