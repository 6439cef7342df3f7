// Command experiments regenerates the tables and figures of the
// SmarterYou paper (DSN 2017) from the synthetic reproduction campaign.
//
// Every report is a pure function of the flags: two runs print the same
// bytes, whatever GOMAXPROCS. Nothing here reads a clock; the paper's
// Section V-H times are measured by the benchmark (bash benchmark/run.sh
// and BenchmarkKRRPrimalVsDual).
//
// Usage:
//
//	experiments -run table7            # one artifact
//	experiments -run all               # every artifact
//	experiments -list                  # list artifact ids
//	experiments -run figure4 -quick    # reduced campaign (fast)
//	experiments -run table7 -users 35 -targets 10 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"smarteryou/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args and writes every report to stdout (and, with -out, to
// <out>/<id>.txt). It returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runID   = fs.String("run", "", "experiment id to run, or 'all'")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		quick   = fs.Bool("quick", false, "use the reduced quick campaign")
		users   = fs.Int("users", 0, "population size (default 35, paper scale)")
		targets = fs.Int("targets", 0, "target users to average over (default 5)")
		seed    = fs.Int64("seed", 0, "campaign seed (default 1)")
		outDir  = fs.String("out", "", "also write each report to <out>/<id>.txt")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			title, err := experiments.Title(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "%-10s %s\n", id, title)
		}
		return 0
	}
	if *runID == "" {
		fmt.Fprintln(os.Stderr, "usage: experiments -run <id|all> [-quick] [-users N] [-targets N] [-seed S]")
		fmt.Fprintln(os.Stderr, "       experiments -list")
		return 2
	}

	cfg := experiments.Config{}
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *users > 0 {
		cfg.Users = *users
	}
	if *targets > 0 {
		cfg.Targets = *targets
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	data, err := experiments.NewData(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		report, err := experiments.Run(id, data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "=== %s: %s ===\n\n", report.ID, report.Title)
		fmt.Fprintln(stdout, strings.TrimRight(report.Text, "\n"))
		if *outDir != "" {
			path := filepath.Join(*outDir, report.ID+".txt")
			if err := os.WriteFile(path, []byte(report.Text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
				return 1
			}
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
