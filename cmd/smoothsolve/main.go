// Command smoothsolve reads an eqlang description file and enumerates its
// smooth solutions by the Section 3.3 tree search.
//
// Usage:
//
//	smoothsolve [-depth N] [-max-nodes N] [-frontier] [-dead] file.eq
//	smoothsolve -            # read from stdin
//	smoothsolve vet [-json] file.eq...   # static analysis only (see cmd/specvet)
//	smoothsolve plan [-json] [-depth N] file.eq...   # static search-cost plan, no search
//	smoothsolve corpus [check|generate|stress] [-family F] [-seed N] [-count N] [-out DIR]   # generated-spec corpus
//
// Example input (the Brock-Ackermann system of Figure 4):
//
//	alphabet b = {1}
//	alphabet c = ints 0 .. 2
//	depth 4
//	desc even(c) <- [0, 2]
//	desc odd(c)  <- b
//	desc b <- fBA(c)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
	"smoothproc/internal/specvet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "vet" {
		return specvet.RunCLI("smoothsolve vet", args[1:], stdin, stdout, stderr)
	}
	if len(args) > 0 && args[0] == "plan" {
		return runPlan(args[1:], stdin, stdout, stderr)
	}
	if len(args) > 0 && args[0] == "corpus" {
		return runCorpus(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("smoothsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	depth := fs.Int("depth", 0, "override the file's probe depth")
	maxNodes := fs.Int("max-nodes", 0, "bound on tree nodes explored (0 = unbounded)")
	showFrontier := fs.Bool("frontier", false, "also print frontier nodes (paths toward ω solutions)")
	showDead := fs.Bool("dead", false, "also print dead leaves (stuck non-solutions)")
	showStats := fs.Bool("stats", false, "print search statistics (nodes, pruning, memo, timing)")
	statsJSON := fs.Bool("stats-json", false, "print search statistics as JSON")
	timeout := fs.Duration("timeout", 0, "wall-clock bound on the search (0 = none), e.g. 500ms or 10s")
	bytecode := fs.Bool("bytecode", false, "print the descvm disassembly of the description's sides and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: smoothsolve [flags] file.eq  (use - for stdin)")
		return 2
	}

	var src []byte
	var err error
	if fs.Arg(0) == "-" {
		src, err = io.ReadAll(stdin)
	} else {
		src, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(stderr, "smoothsolve: %v\n", err)
		return 1
	}

	prog, err := eqlang.CompileSource(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "smoothsolve: %v\n", err)
		if e, ok := err.(*eqlang.Error); ok {
			if snippet := eqlang.FormatSnippet(string(src), e.Line); snippet != "" {
				fmt.Fprintf(stderr, "  | %s\n", snippet)
			}
		}
		return 1
	}

	if *bytecode {
		f, g, ok := prog.Bytecode()
		printSide := func(name, dis string) {
			if dis == "" {
				fmt.Fprintf(stdout, "%s: not lowerable (interpreted)\n", name)
				return
			}
			fmt.Fprintf(stdout, "%s:\n", name)
			for _, line := range strings.Split(strings.TrimRight(dis, "\n"), "\n") {
				fmt.Fprintf(stdout, "  %s\n", line)
			}
		}
		printSide("f", f)
		printSide("g", g)
		if !ok {
			return 1
		}
		return 0
	}

	problem := prog.Problem()
	if *depth > 0 {
		problem.MaxDepth = *depth
	}
	problem.MaxNodes = *maxNodes
	problem.CollectVisited = false // nothing below prints the visited list

	fmt.Fprintf(stdout, "system: %d description(s), channels %v, depth %d\n",
		len(prog.System.Descs), problem.Channels, problem.MaxDepth)
	for _, d := range prog.System.Descs {
		fmt.Fprintf(stdout, "  %s\n", d)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res := solver.Enumerate(ctx, problem)
	fmt.Fprintf(stdout, "explored %d tree node(s)%s\n", res.Nodes, truncNote(res))
	fmt.Fprintf(stdout, "smooth solutions: %d\n", len(res.Solutions))
	for _, s := range res.Solutions {
		fmt.Fprintf(stdout, "  %s\n", s)
	}
	if *showFrontier {
		fmt.Fprintf(stdout, "frontier (depth-bound nodes with sons): %d\n", len(res.Frontier))
		for _, s := range res.Frontier {
			fmt.Fprintf(stdout, "  %s\n", s)
		}
	}
	if *showDead {
		fmt.Fprintf(stdout, "dead leaves: %d\n", len(res.DeadLeaves))
		for _, s := range res.DeadLeaves {
			fmt.Fprintf(stdout, "  %s\n", s)
		}
	}
	// Stats print before expectation checking, so a failing (e.g.
	// truncated) run still shows its diagnostics.
	if *showStats || *statsJSON {
		rep := res.Stats.Report()
		if *statsJSON {
			js, err := rep.JSON()
			if err != nil {
				fmt.Fprintf(stderr, "smoothsolve: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", js)
		} else {
			fmt.Fprintf(stdout, "\n%s", rep.Text())
		}
	}
	if len(prog.Expects) > 0 {
		if err := prog.CheckExpects(res); err != nil {
			fmt.Fprintf(stderr, "smoothsolve: expectation FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "expectations: %d checked, all hold\n", len(prog.Expects))
	}
	return 0
}

// runPlan is `smoothsolve plan`: derive each spec's static search-cost
// plan — node bounds, the Theorem 1 partition, per-channel branching —
// without running any search. This is the same analysis smoothd runs at
// spec upload for admission control.
func runPlan(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smoothsolve plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the plan as JSON")
	depth := fs.Int("depth", 0, "plan at this depth instead of the file's probe depth")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: smoothsolve plan [-json] [-depth N] file.eq...  (use - for stdin)")
		return 2
	}

	type filePlan struct {
		File string         `json:"file"`
		Plan *specplan.Plan `json:"plan"`
	}
	var plans []filePlan
	for _, path := range fs.Args() {
		var src []byte
		var err error
		if path == "-" {
			src, err = io.ReadAll(stdin)
		} else {
			src, err = os.ReadFile(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "smoothsolve plan: %v\n", err)
			return 1
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			fmt.Fprintf(stderr, "smoothsolve plan: %s: %v\n", path, err)
			return 1
		}
		d := prog.Depth
		if *depth > 0 {
			d = *depth
		}
		p := specplan.Analyze(prog.System, prog.Alphabet, d)
		if *asJSON {
			plans = append(plans, filePlan{File: path, Plan: p})
			continue
		}
		printPlan(stdout, path, p)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plans); err != nil {
			fmt.Fprintf(stderr, "smoothsolve plan: %v\n", err)
			return 1
		}
	}
	return 0
}

func printPlan(w io.Writer, name string, p *specplan.Plan) {
	fmt.Fprintf(w, "%s: plan: %s\n", name, p.Summary())
	fmt.Fprintf(w, "  nodes(%d) in [%s, %s], base holds %v, thm1 fast path %v, shareability %.2f\n",
		p.Depth, specplan.FormatBound(p.MinNodesBound), specplan.FormatBound(p.NodesBound),
		p.BaseHolds, p.Thm1FastPath, p.Shareability)
	if p.MaxPathLen >= 0 {
		fmt.Fprintf(w, "  max path length %d (constant-bounded right sides)\n", p.MaxPathLen)
	}
	for _, cp := range p.Channels {
		notes := ""
		if cp.Auto {
			notes += ", auto (Theorem 1)"
		}
		if cp.Dead {
			notes += ", dead"
		}
		if cp.Cap >= 0 && !cp.Dead {
			notes += fmt.Sprintf(", cap %d", cp.Cap)
		}
		fmt.Fprintf(w, "  channel %s: alphabet %d, branch <= %d%s\n", cp.Channel, cp.Alphabet, cp.Bound, notes)
	}
	for i, g := range p.Partition {
		fmt.Fprintf(w, "  partition %d: channels %v descs %v\n", i, g.Channels, g.Descs)
	}
	if len(p.OmegaDescs) > 0 {
		fmt.Fprintf(w, "  omega descs: %v\n", p.OmegaDescs)
	}
}

func truncNote(res solver.Result) string {
	switch {
	case res.Canceled:
		return " (stopped by -timeout)"
	case res.Truncated:
		return " (truncated by -max-nodes)"
	}
	return ""
}
