package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"smoothproc/internal/descvm"
	"smoothproc/internal/netgen"
	"smoothproc/internal/specvet"
)

// runCorpus is `smoothsolve corpus`: drive the generated-spec corpus
// from the command line. Three verbs:
//
//	smoothsolve corpus [check] [-family F] [-seed N] [-count N]
//	    generate instances and run the full gauntlet on each — specvet,
//	    descvm compile+verify, and the solver⇔netsim cross-check. This
//	    is the per-PR CI corpus job.
//	smoothsolve corpus generate [-family F] [-seed N] [-count N] -out DIR
//	    write the emitted .eq sources to DIR without checking them.
//	smoothsolve corpus stress [-seed N] [-target N]
//	    generate one calibrated ≥target-node instance and solve it,
//	    reporting the planner bracket against the actual tree.
func runCorpus(args []string, stdout, stderr io.Writer) int {
	verb := "check"
	if len(args) > 0 {
		switch args[0] {
		case "check", "generate", "stress":
			verb = args[0]
			args = args[1:]
		}
	}

	fs := flag.NewFlagSet("smoothsolve corpus "+verb, flag.ContinueOnError)
	fs.SetOutput(stderr)
	family := fs.String("family", "all", "family name or 'all' (round-robin); see -list")
	seed := fs.Int64("seed", 0, "base seed; instance i uses seed+i")
	count := fs.Int("count", 10, "number of instances to generate")
	out := fs.String("out", "", "generate: directory to write .eq files into")
	target := fs.Uint64("target", 0, "stress: planner node target (default 100000)")
	list := fs.Bool("list", false, "list the corpus families and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, f := range netgen.Families() {
			fmt.Fprintf(stdout, "%-10s %s\n", f.Name, f.Doc)
		}
		return 0
	}

	switch verb {
	case "generate":
		return corpusGenerate(*family, *seed, *count, *out, stdout, stderr)
	case "stress":
		return corpusStress(*seed, *target, stdout, stderr)
	default:
		return corpusCheck(*family, *seed, *count, stdout, stderr)
	}
}

func corpusInstances(family string, seed int64, count int, stderr io.Writer) ([]*netgen.Instance, int) {
	ins, err := netgen.Corpus(family, seed, count)
	if err != nil {
		fmt.Fprintf(stderr, "smoothsolve corpus: %v\n", err)
		return nil, 1
	}
	return ins, 0
}

func corpusGenerate(family string, seed int64, count int, out string, stdout, stderr io.Writer) int {
	if out == "" {
		fmt.Fprintln(stderr, "smoothsolve corpus generate: -out DIR is required")
		return 2
	}
	ins, rc := corpusInstances(family, seed, count, stderr)
	if rc != 0 {
		return rc
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(stderr, "smoothsolve corpus generate: %v\n", err)
		return 1
	}
	for _, in := range ins {
		path := filepath.Join(out, in.Name+".eq")
		if err := os.WriteFile(path, []byte(in.Source), 0o644); err != nil {
			fmt.Fprintf(stderr, "smoothsolve corpus generate: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s  %s\n", path, in.Shape)
	}
	fmt.Fprintf(stdout, "wrote %d spec(s) to %s\n", len(ins), out)
	return 0
}

func corpusCheck(family string, seed int64, count int, stdout, stderr io.Writer) int {
	ins, rc := corpusInstances(family, seed, count, stderr)
	if rc != 0 {
		return rc
	}
	ctx := context.Background()
	failures := 0
	for _, in := range ins {
		start := time.Now()
		if err := corpusCheckOne(ctx, in); err != nil {
			fmt.Fprintf(stderr, "FAIL %s: %v\n", in.Name, err)
			failures++
			continue
		}
		fmt.Fprintf(stdout, "ok   %-14s %-40s (%s, %v)\n", in.Name, in.Shape, in.Mode, time.Since(start).Round(time.Millisecond))
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "smoothsolve corpus: %d/%d instance(s) failed\n", failures, len(ins))
		return 1
	}
	fmt.Fprintf(stdout, "%d instance(s): specvet, bytecode verify, and solver⇔netsim cross-check all hold\n", len(ins))
	return 0
}

// corpusCheckOne runs the full per-instance gauntlet: the static stack
// smoothd runs at upload (specvet, descvm compile+verify), then the
// dynamic solver⇔netsim cross-check in the family's conformance mode.
func corpusCheckOne(ctx context.Context, in *netgen.Instance) error {
	if res := specvet.Vet(in.Source); res.HasErrors() {
		return fmt.Errorf("specvet:\n%s", res.Text(in.Name))
	}
	d := in.Prog.Problem().D
	pf, okf := descvm.Compile(d.F)
	pg, okg := descvm.Compile(d.G)
	if !okf || !okg {
		return fmt.Errorf("bytecode: sides did not lower (f %v, g %v)", okf, okg)
	}
	if err := descvm.Verify(pf); err != nil {
		return fmt.Errorf("bytecode: f verify: %w", err)
	}
	if err := descvm.Verify(pg); err != nil {
		return fmt.Errorf("bytecode: g verify: %w", err)
	}
	return in.CrossCheck(ctx)
}

func corpusStress(seed int64, target uint64, stdout, stderr io.Writer) int {
	s, err := netgen.Stress(seed, netgen.StressConfig{TargetNodes: target})
	if err != nil {
		fmt.Fprintf(stderr, "smoothsolve corpus stress: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %s, planner bracket [%d, %d] nodes\n", s.Name, s.Shape, s.PredictedMin, s.PredictedMax)
	start := time.Now()
	res := s.Solve(context.Background())
	elapsed := time.Since(start).Round(time.Millisecond)
	fmt.Fprintf(stdout, "solved %d node(s), %d solution(s), %v\n",
		res.Nodes, len(res.Solutions), elapsed)
	if uint64(res.Nodes) < s.PredictedMin || uint64(res.Nodes) > s.PredictedMax {
		fmt.Fprintf(stderr, "smoothsolve corpus stress: %d nodes outside planner bracket [%d, %d]\n",
			res.Nodes, s.PredictedMin, s.PredictedMax)
		return 1
	}
	return 0
}
