// Command analyze runs the simulation and regenerates a selected table or
// figure from the paper, printing its data rows (and CSV with -csv).
//
// Usage:
//
//	analyze [-seed N] [-days N] [-quick] [-csv] [-workers N] -exp <id>
//
// where <id> is an id of the experiment registry (experiments.Registry;
// -h lists them), which also backs cmd/repro's report and cmd/serve's
// /api/experiments/{id}, or one of: all (the full report plus the shape
// checks), repair (metadata-repair uplift) and coopt (brokerage-policy
// comparison). The registry's e14 and e15 run canned sweep grids of their
// own (cmd/sweep is the full front end) and reject -days, -quick and -csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"panrucio/internal/coopt"
	"panrucio/internal/core"
	"panrucio/internal/experiments"
	"panrucio/internal/report"
	"panrucio/internal/sim"
)

type options struct {
	seed    int64
	days    int
	quick   bool
	csv     bool
	exp     string
	workers int
}

// studies are the -exp values outside the experiment registry.
var studies = []string{"all", "repair", "coopt"}

// validExperiments lists the -exp ids in usage/error order.
func validExperiments() string {
	return strings.Join(append(experiments.IDs(), studies...), ", ")
}

// parseFlags parses the command line into options; kept separate from main
// so flag handling is testable without running a simulation.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.days, "days", 8, "study-window length in days")
	fs.BoolVar(&o.quick, "quick", false, "use the reduced quick scenario")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables where applicable")
	fs.StringVar(&o.exp, "exp", "all", "experiment id: "+validExperiments())
	fs.IntVar(&o.workers, "workers", 0, "matcher worker goroutines (0 = all cores, 1 = serial); for -exp e14 and e15, concurrent sweep scenarios")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	e, ok := experiments.Lookup(o.exp)
	if !ok && !slices.Contains(studies, o.exp) {
		return nil, fmt.Errorf("unknown experiment %q (want one of: %s)", o.exp, validExperiments())
	}
	if o.days <= 0 {
		return nil, fmt.Errorf("-days must be positive, got %d", o.days)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("-workers must be non-negative, got %d", o.workers)
	}
	if ok && e.Suite == nil {
		// E14/E15 run canned quick-scale sweep grids, not the single-suite
		// pipeline: reject flags they would silently ignore.
		var rejected []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "days", "quick", "csv":
				rejected = append(rejected, "-"+f.Name)
			}
		})
		if len(rejected) > 0 {
			return nil, fmt.Errorf("%s not supported with -exp %s (the sweep fixes its own scenarios; use cmd/sweep for more control)",
				strings.Join(rejected, ", "), o.exp)
		}
	}
	return o, nil
}

// config builds the scenario the options select.
func (o *options) config() sim.Config {
	cfg := sim.PaperConfig(o.seed)
	if o.quick {
		cfg = sim.QuickConfig(o.seed)
	}
	cfg.Days = o.days
	return cfg
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	fmt.Print(run(o))
}

// run renders the selected experiment as the command prints it: a
// registry entry's artifact, or one of the studies outside the registry.
func run(o *options) string {
	if o.exp == "coopt" {
		cc := coopt.ContentionConfig(o.seed, 2, 0.01)
		return experiments.Artifact{Table: coopt.Table(coopt.Compare(cc, coopt.DefaultPolicies()))}.Render(o.csv)
	}
	e, _ := experiments.Lookup(o.exp)
	if e.Scenarios != nil {
		return e.Scenarios(o.seed, o.workers).Render(o.csv)
	}
	s := experiments.RunWorkers(o.config(), o.workers)
	switch o.exp {
	case "all":
		checks, _ := experiments.Lookup("checks")
		return s.RenderAll() + checks.Suite(s).Render(false)
	case "repair":
		return repair(s).Render(o.csv)
	}
	return e.Suite(s).Render(o.csv)
}

// repair measures the exact-match uplift of the metadata-repair pass.
func repair(s *experiments.Suite) experiments.Artifact {
	up, st := core.MeasureUplift(s.Result.Store, s.Result.Grid, s.Jobs, core.Exact)
	t := &report.Table{
		Title:   "Metadata repair uplift (RM2 inference -> exact re-match)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("labels repaired", fmt.Sprintf("%d (%d duplicate-evidence, %d site-condition)",
		st.LabelsRepaired, st.ByDuplicate, st.BySiteCondition))
	t.AddRow("exact matched jobs", fmt.Sprintf("%d -> %d (+%d)",
		up.Before.MatchedJobs, up.After.MatchedJobs, up.JobGain))
	t.AddRow("exact matched transfers", fmt.Sprintf("%d -> %d (+%d)",
		up.Before.MatchedTransfers, up.After.MatchedTransfers, up.TransferGain))
	return experiments.Artifact{Table: t}
}
