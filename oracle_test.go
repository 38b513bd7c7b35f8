// Test-only §3.3 oracle: the tree walked straight from the paper's
// definition — u has son u·e iff D.EdgeOK(u, u·e), and u is a smooth
// solution iff D.LimitOK(u) — on desc.Description directly, with no
// evaluator, memo, Theorem 1 fast path or interned candidates. The
// production search must agree with it on every shipped and generated
// spec: the same solution, frontier and dead-leaf sets and the same
// node count.
package smoothproc_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// oracleTree is the oracle's view of a bounded tree: node count and the
// sorted keys of each node class.
type oracleTree struct {
	nodes                     int
	solutions, frontier, dead []string
}

func oracleWalk(p solver.Problem) oracleTree {
	var o oracleTree
	var walk func(u trace.Trace)
	walk = func(u trace.Trace) {
		o.nodes++
		solution := p.D.LimitOK(u)
		if solution {
			o.solutions = append(o.solutions, u.String())
		}
		var sons []trace.Trace
		for _, c := range p.Channels {
			for _, m := range p.Alphabet[c] {
				if v := u.Append(trace.E(c, m)); p.D.EdgeOK(u, v) {
					sons = append(sons, v)
				}
			}
		}
		switch {
		case len(sons) == 0 && !solution:
			o.dead = append(o.dead, u.String())
		case len(sons) > 0 && u.Len() >= p.MaxDepth:
			o.frontier = append(o.frontier, u.String())
		case len(sons) > 0:
			for _, v := range sons {
				walk(v)
			}
		}
	}
	walk(trace.Empty)
	sort.Strings(o.solutions)
	sort.Strings(o.frontier)
	sort.Strings(o.dead)
	return o
}

func treeOf(res solver.Result) oracleTree {
	keys := func(ts []trace.Trace) []string {
		var out []string
		for _, t := range ts {
			out = append(out, t.String())
		}
		sort.Strings(out)
		return out
	}
	return oracleTree{res.Nodes, keys(res.Solutions), keys(res.Frontier), keys(res.DeadLeaves)}
}

func TestSearchMatchesOracleAcrossSpecs(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"specs/*.eq", "specs/generated/*.eq"} {
		m, err := filepath.Glob(filepath.FromSlash(pattern))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no spec files found")
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			p := prog.Problem()
			want := oracleWalk(p)
			res := solver.Enumerate(context.Background(), p)
			if res.Truncated {
				t.Fatal("search truncated")
			}
			if got := treeOf(res); !reflect.DeepEqual(got, want) {
				t.Errorf("search disagrees with the §3.3 oracle:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
