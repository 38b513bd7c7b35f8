// Command smoothlint is the repository's invariant checker: a
// multichecker running the custom analyzers in internal/lint over the
// module's non-test code.
//
//	smoothlint ./...
//	smoothlint ./internal/solver ./internal/service
//	smoothlint -list
//
// The analyzers enforce conventions the compiler cannot — ctxflow
// (contexts are threaded, never minted in library code), atomiccount
// (search/metrics counters only via their accessors), concdoc,
// compileok and storecheck (see `smoothlint -list`). Findings are
// suppressed case by case with `//smoothlint:allow <analyzer> <reason>`
// on or above the offending line. Exit status is 1 when findings
// remain, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"smoothproc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("smoothlint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	asJSON := fs.Bool("json", false, "emit findings as JSON")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := lint.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *asJSON {
		type finding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "smoothlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
