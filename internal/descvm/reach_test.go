package descvm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smoothproc/internal/descvm"
	"smoothproc/internal/eqlang"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// reached returns the components SonLeq compares for a son u·e: a
// bound equal to f(u·e) but for one component, which no value of f(u·e)
// is below, fails the check exactly when the check reads that component.
// Every component of f(u·e) must be non-empty for the probe to tell.
func reached(t *testing.T, f fn.TraceFn, u trace.Trace, e trace.Event) []int {
	t.Helper()
	p, ok := descvm.Compile(f)
	if !ok {
		t.Fatalf("%s: not lowerable", f.Name)
	}
	want := f.Apply(u.Append(e))
	var out []int
	for k := range want {
		if want[k].Len() == 0 {
			t.Fatalf("%s: component %d of f(%s) is empty, so no bound can miss it", f.Name, k, u.Append(e))
		}
		bound := append(fn.Tuple(nil), want...)
		bound[k] = seq.Of(value.Sym("unreached"))
		if _, ok := p.NewSession().SonLeq(u, e, bound, false); !ok {
			out = append(out, k)
		}
	}
	return out
}

// TestEdgeReach pins which components an event reaches, and so which
// the sliced edge check evaluates and compares. dfm-0's combined left
// side is (b, c, even(d0), odd(d0), d1): an event on b reaches
// component 0 alone, one on d0 components 2 and 3. An ω component grows
// with every event, one on a channel the program does not read too. A
// program with more channels than the reach mask holds compares every
// component, as the full check does. And a fresh session's frames start
// at ⊥, so its first evaluation walks nothing there; a frame moves
// through the common ancestor, and content-equal traces on separate
// spines share only ⊥.
func TestEdgeReach(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "generated", "dfm-0.eq"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqlang.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	dfm := prog.Problem().D.F
	e := func(ch string, n int64) trace.Event { return trace.E(ch, value.Int(n)) }
	u := trace.Of(e("b", 4), e("c", 5), e("d0", 4), e("d0", 5), e("d1", 8))
	for _, tc := range []struct {
		e    trace.Event
		want []int
	}{
		{e("b", 4), []int{0}},
		{e("c", 7), []int{1}},
		{e("d0", 7), []int{2, 3}},
		{e("d1", 10), []int{4}},
	} {
		if got := reached(t, dfm, u, tc.e); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("dfm-0: %s reaches components %v, want %v", tc.e, got, tc.want)
		}
	}

	omega := fn.Pair(fn.ChanFn("a"), fn.OmegaConstFn("trues", seq.OfBools(true)))
	ua := trace.Of(e("a", 1))
	if got := reached(t, omega, ua, e("a", 2)); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("ω: an event on a reaches %v, want [0 1]", got)
	}
	if got := reached(t, omega, ua, e("elsewhere", 0)); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("ω: an event off the channel table reaches %v, want [1]", got)
	}

	wide := make([]fn.TraceFn, 40)
	all := make([]int, len(wide))
	uw := trace.Empty
	for i := range wide {
		ch := fmt.Sprintf("w%d", i)
		wide[i], all[i] = fn.ChanFn(ch), i
		uw = uw.Append(e(ch, 0))
	}
	if got := reached(t, fn.Pair(wide...), uw, e("w0", 1)); !reflect.DeepEqual(got, all) {
		t.Errorf("40 channels: an event on w0 reaches %v, want every component", got)
	}

	p, ok := descvm.Compile(dfm)
	if !ok {
		t.Fatal("dfm-0 left side did not compile")
	}
	s := p.NewSession()
	if n := s.Steps(trace.Empty); n != 0 {
		t.Errorf("a fresh session walks %d steps to ⊥, want 0", n)
	}
	if n := s.Steps(u); n != u.Len() {
		t.Errorf("a fresh session walks %d steps to %s, want %d pushes", n, u, u.Len())
	}
	son := u.Append(e("b", 4))
	if got, want := s.View(son), dfm.Apply(son); !got.Equal(want) {
		t.Fatalf("view of %s: %v, want %v", son, got, want)
	}
	sibling := u.Take(u.Len() - 1).Append(e("d1", 10))
	for _, tc := range []struct {
		to   trace.Trace
		want int
	}{
		{u, 0},
		{u.Take(2), 3},
		{sibling, 2},
		{trace.FromEvents(u.Events()), 2 * u.Len()},
	} {
		if n := s.Steps(tc.to); n != tc.want {
			t.Errorf("based at %s, a move to %s walks %d steps, want %d", u, tc.to, n, tc.want)
		}
	}
}
