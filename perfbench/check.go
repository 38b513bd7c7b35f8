package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/service"
	"smoothproc/internal/trace"
)

// checker verifies every answer against references that do not come
// from the search under test: the spec's own expect statements, the
// planner's node bracket, and, for every later answer to the same
// (spec, depth), the first answer seen, byte for byte.
type checker struct {
	mu    sync.Mutex
	first map[answerKey]string
}

type answerKey struct {
	hash  string
	depth int
}

func newChecker() *checker { return &checker{first: map[answerKey]string{}} }

// check verifies res, the server's answer for s at depth.
func (c *checker) check(s *Spec, depth int, res *service.SolveResult) error {
	if res == nil {
		return fmt.Errorf("%s d%d: no result", s.Name, depth)
	}
	if res.Truncated || res.Canceled {
		return fmt.Errorf("%s d%d: search stopped early (truncated %v, canceled %v)", s.Name, depth, res.Truncated, res.Canceled)
	}
	lo, hi := s.plan.MinNodes(depth), s.plan.Nodes(depth)
	if n := uint64(res.Nodes); n < lo || n > hi {
		return fmt.Errorf("%s d%d: %d nodes outside the planned bracket [%d, %d]", s.Name, depth, res.Nodes, lo, hi)
	}
	if depth == s.prog.Depth {
		if err := checkExpects(s.prog.Expects, res.Solutions); err != nil {
			return fmt.Errorf("%s d%d: %w", s.Name, depth, err)
		}
	}
	got := strings.Join(res.Solutions, "\n")
	k := answerKey{s.Hash, depth}
	c.mu.Lock()
	want, seen := c.first[k]
	if !seen {
		c.first[k] = got
	}
	c.mu.Unlock()
	if seen && got != want {
		return fmt.Errorf("%s d%d: solutions differ from the first answer", s.Name, depth)
	}
	return nil
}

// checkExpects verifies a spec's expect statements against a solution
// list in the wire's rendering.
func checkExpects(expects []eqlang.ExpectStmt, solutions []string) error {
	for _, e := range expects {
		switch e.Kind {
		case eqlang.ExpectCount:
			if len(solutions) != e.N {
				return fmt.Errorf("line %d: expected %d solutions, got %d", e.Line, e.N, len(solutions))
			}
		case eqlang.ExpectSolution, eqlang.ExpectNotSolution:
			tr := trace.Empty
			for _, ev := range e.Trace {
				tr = tr.Append(trace.E(ev.Ch, ev.Val))
			}
			found := slices.Contains(solutions, tr.String())
			if e.Kind == eqlang.ExpectSolution && !found {
				return fmt.Errorf("line %d: expected solution %s missing", e.Line, tr)
			}
			if e.Kind == eqlang.ExpectNotSolution && found {
				return fmt.Errorf("line %d: %s must not be a solution", e.Line, tr)
			}
		}
	}
	return nil
}
