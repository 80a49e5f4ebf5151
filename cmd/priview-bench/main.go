// Command priview-bench regenerates the paper's evaluation artifacts:
// every figure's candlestick rows and every in-text table. By default it
// runs a reduced configuration that finishes in minutes; -full runs the
// paper-scale setup (200 query sets, 5 runs, full dataset sizes), which
// takes considerably longer.
//
// Usage:
//
//	priview-bench -exp all                 # everything, reduced size
//	priview-bench -exp fig2 -full          # one figure, paper scale
//	priview-bench -exp fig1 -csv fig1.csv  # machine-readable output
//	priview-bench -exp tables              # the in-text analytic tables
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"priview/internal/experiments"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// emitf writes report output. A failed write to the report stream has
// no recovery mid-experiment, so the error is dropped here, once.
func emitf(w io.Writer, format string, args ...any) {
	//lint:ignore errdiscard report output stream; a write failure mid-experiment has no error sink
	_, _ = fmt.Fprintf(w, format, args...)
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("priview-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id: all, fig1..fig6, ablation, cat-sweep, tables, runtime, qcache")
	full := fs.Bool("full", false, "paper-scale configuration (200 queries, 5 runs, full N)")
	queries := fs.Int("queries", 0, "override query-set count")
	runs := fs.Int("runs", 0, "override runs per query")
	n := fs.Int("n", 0, "override dataset size (0 = config default)")
	seed := fs.Int64("seed", 1, "root seed")
	csvPath := fs.String("csv", "", "also write figure rows as CSV to this file")
	ckptPath := fs.String("checkpoint", "", "JSONL checkpoint file: completed experiments are recorded there and resumed after a crash")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	known := map[string]bool{
		"all": true, "fig1": true, "fig2": true, "fig3": true, "fig4": true,
		"fig5": true, "fig6": true, "ablation": true, "cat-sweep": true,
		"tables": true, "runtime": true, "qcache": true,
	}
	if !known[*exp] {
		emitf(stderr, "priview-bench: unknown experiment %q\n", *exp)
		return 2
	}

	cfg := experiments.Reduced()
	if *full {
		cfg = experiments.Full()
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *n > 0 {
		cfg.N = *n
	}
	cfg.Seed = *seed

	var ckpt *checkpoint
	if *ckptPath != "" {
		var err error
		ckpt, err = openCheckpoint(*ckptPath, cfg)
		if err != nil {
			emitf(stderr, "priview-bench: %v\n", err)
			return 1
		}
		defer func() {
			if err := ckpt.Close(); err != nil {
				emitf(stderr, "priview-bench: closing checkpoint: %v\n", err)
			}
		}()
		if n := len(ckpt.done); n > 0 {
			emitf(stdout, "checkpoint %s: %d experiment(s) already complete\n", *ckptPath, n)
		}
	}

	want := func(id string) bool { return *exp == "all" || *exp == id }
	var allRows []experiments.Row
	run := func(id, title string, f func(experiments.Config) []experiments.Row) {
		if !want(id) {
			return
		}
		if ckpt != nil {
			if rows, ok := ckpt.lookup(id); ok {
				emitf(stdout, "\n== %s: %s (resumed from checkpoint) ==\n", id, title)
				emitf(stdout, "%s", experiments.FormatRows(rows))
				allRows = append(allRows, rows...)
				return
			}
		}
		start := time.Now()
		rows := f(cfg)
		if ckpt != nil {
			// Record before reporting: once the line is fsynced, a crash
			// cannot cost this experiment's work.
			if err := ckpt.record(id, rows, cfg); err != nil {
				emitf(stderr, "priview-bench: checkpoint write failed (continuing): %v\n", err)
			}
		}
		emitf(stdout, "\n== %s: %s (%v) ==\n", id, title, time.Since(start).Round(time.Millisecond))
		emitf(stdout, "%s", experiments.FormatRows(rows))
		allRows = append(allRows, rows...)
	}

	if want("tables") {
		emitf(stdout, "%s\n", experiments.RunTabCrossover().Format())
		emitf(stdout, "%s\n", experiments.RunTabMidsize().Format())
		emitf(stdout, "%s\n", experiments.RunTabEll().Format())
		emitf(stdout, "%s\n", experiments.RunTabKosarakT(cfg.Seed).Format())
		emitf(stdout, "%s\n", experiments.RunTabCategorical().Format())
	}
	run("fig1", "all methods on MSNBC (d=9)", experiments.RunFig1)
	run("fig2", "PriView vs Flat/Direct/Fourier on Kosarak and AOL", experiments.RunFig2)
	run("fig3", "reconstruction methods (CME/LP/CLP/CLN/CME*)", experiments.RunFig3)
	run("fig4", "non-negativity methods (None/Simple/Global/Ripple)", experiments.RunFig4)
	run("fig5", "markov-chain datasets mc1..mc7 (d=64)", experiments.RunFig5)
	run("fig6", "covering-design comparison on Kosarak", experiments.RunFig6)
	run("ablation", "beyond-paper ablations (consistency, noise, ripple-θ)", experiments.RunAblation)
	run("cat-sweep", "categorical view cell-budget sweep (§4.7 guideline)", experiments.RunCategoricalSweep)
	if want("runtime") {
		rows := experiments.RunTabRuntime(cfg)
		emitf(stdout, "\n%s", experiments.FormatRuntime(rows))
	}
	if want("qcache") {
		rows := experiments.RunQCache(cfg)
		emitf(stdout, "\n%s", experiments.FormatQCache(rows))
	}

	if *csvPath != "" && len(allRows) > 0 {
		f, err := os.Create(*csvPath)
		if err != nil {
			emitf(stderr, "priview-bench: %v\n", err)
			return 1
		}
		err = experiments.WriteCSV(f, allRows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			emitf(stderr, "priview-bench: %v\n", err)
			return 1
		}
		emitf(stdout, "\nwrote %d rows to %s\n", len(allRows), *csvPath)
	}
	return 0
}
