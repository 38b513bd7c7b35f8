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
		tr, id := descvm.TreeOf(u, e)
		if _, ok := p.NewSession().SonLeq(tr, id, u.Len(), bound, false); !ok {
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
// through the common ancestor in the tree, content-equal nodes at
// different IDs share only theirs, and a move to another tree walks
// down to ⊥ and up again.
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
	// One tree holds u's path, a sibling of u, and a second path with
	// u's events at other IDs.
	tr, uid := descvm.TreeOf(u, e("b", 4), e("d1", 10))
	path := func(from trace.ID, evs ...int) trace.ID {
		for _, k := range evs {
			from = tr.Add(from, k)
		}
		return from
	}
	mid, _ := tr.Edge(uid)
	for range 2 {
		mid, _ = tr.Edge(mid)
	}
	parent, _ := tr.Edge(uid)
	sibling := path(parent, u.Len()+1)
	copied := path(trace.Root, 0, 1, 2, 3, 4)
	other, oid := descvm.TreeOf(u)
	s := p.NewSession()
	if n := s.Steps(tr, trace.Root); n != 0 {
		t.Errorf("a fresh session walks %d steps to ⊥, want 0", n)
	}
	if n := s.Steps(tr, uid); n != u.Len() {
		t.Errorf("a fresh session walks %d steps to %s, want %d pushes", n, u, u.Len())
	}
	son := u.Append(e("b", 4))
	if got, want := s.ViewSon(tr, uid, u.Len()), dfm.Apply(son); !got.Equal(want) {
		t.Fatalf("view of %s: %v, want %v", son, got, want)
	}
	for _, tc := range []struct {
		name string
		to   trace.ID
		want int
	}{
		{"u", uid, 0},
		{"its length-2 prefix", mid, 3},
		{"its sibling", sibling, 2},
		{"a content-equal copy", copied, 2 * u.Len()},
	} {
		if n := s.Steps(tr, tc.to); n != tc.want {
			t.Errorf("based at %s, a move to %s walks %d steps, want %d", u, tc.name, n, tc.want)
		}
	}
	if n := s.Steps(other, oid); n != 2*u.Len() {
		t.Errorf("based at %s, a move to its copy in another tree walks %d steps, want %d", u, n, 2*u.Len())
	}
}
