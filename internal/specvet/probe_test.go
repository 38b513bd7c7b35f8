package specvet

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/descvm"
	"smoothproc/internal/eqlang"
	"smoothproc/internal/fn"
	"smoothproc/internal/netgen"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// refProbeTraces is the plain breadth-first sample list, written level
// by level: every trace over the alphabet's events (channels in sorted
// order) up to depth, capped at max traces.
func refProbeTraces(alphabet map[string][]value.Value, depth, max int) []trace.Trace {
	var events []trace.Event
	for _, c := range sortedKeys(alphabet) {
		for _, v := range alphabet[c] {
			events = append(events, trace.E(c, v))
		}
	}
	samples := []trace.Trace{trace.Empty}
	level := []trace.Trace{trace.Empty}
	for d := 0; d < depth && len(samples) < max; d++ {
		var next []trace.Trace
		for _, t := range level {
			for _, e := range events {
				if len(samples) >= max {
					return samples
				}
				ext := t.Append(e)
				samples = append(samples, ext)
				next = append(next, ext)
			}
		}
		level = next
	}
	return samples
}

// refProbeSupport is the support check read straight from §3.2: project
// each sample onto the declared support and apply the side to both.
func refProbeSupport(tf fn.TraceFn, samples []trace.Trace) string {
	for _, t := range samples {
		proj := t.Project(tf.Support)
		whole, onSupp := tf.Apply(t), tf.Apply(proj)
		if tf.Omega {
			if !onSupp.Leq(whole) {
				return fmt.Sprintf("ω-approximation on support projection %s does not approximate the output on %s", proj, t)
			}
			continue
		}
		if !whole.Equal(onSupp) {
			return fmt.Sprintf("output on %s differs from the output on its support projection %s (declared support %v)",
				t, proj, tf.Support.Names())
		}
	}
	return ""
}

// refContracts is vetDeclaredContracts written as the definition: three
// applications per sample per side (whole, projection, growth) and a
// fresh projection of every sample.
func refContracts(f *eqlang.File, p *eqlang.Program, samples []trace.Trace) []Diagnostic {
	var ds []Diagnostic
	for i, d := range p.System.Descs {
		stmt := f.Descs[i]
		for _, s := range []struct {
			name string
			tf   fn.TraceFn
		}{{"left", d.F}, {"right", d.G}} {
			if msg := refProbeSupport(s.tf, samples); msg != "" {
				ds = append(ds, Diagnostic{
					Rule: "support-mismatch", Severity: SevError,
					Line: stmt.Line, Col: stmt.Col,
					Message: fmt.Sprintf("%s: %s side: %s", d.Name, s.name, msg),
					Hint:    "the declared support feeds Theorem 1 and elimination checks; fix the combinator's Support",
				})
			}
			for _, tr := range samples {
				if err := fn.CheckOutputGrowth(s.tf, tr.Len(), s.tf.Apply(tr), tr.String); err != nil {
					ds = append(ds, Diagnostic{
						Rule: "growth-bound", Severity: SevError,
						Line: stmt.Line, Col: stmt.Col,
						Message: fmt.Sprintf("%s: %s side: %v", d.Name, s.name, err),
					})
					break
				}
			}
		}
	}
	return ds
}

// liarProgram hand-builds a program of the given descriptions over the
// alphabet, one source line per description.
func liarProgram(alphabet map[string][]value.Value, ds ...desc.Description) (*eqlang.File, *eqlang.Program) {
	f := &eqlang.File{}
	for i, d := range ds {
		f.Descs = append(f.Descs, eqlang.DescStmt{Name: d.Name, Line: i + 1, Col: 1})
	}
	return f, &eqlang.Program{System: desc.System{Descs: ds}, Alphabet: alphabet}
}

// liars are four sides that break their declared contracts in different
// ways, over channels x and y.
func liars() []fn.TraceFn {
	return []fn.TraceFn{
		{
			Name: "reads-x-declares-nothing", Out: 1, Support: trace.NewChanSet(),
			Apply: func(t trace.Trace) fn.Tuple { return fn.Tuple{t.Channel("x")} },
		},
		{
			Name: "reads-x-declares-y", Out: 1, Support: trace.NewChanSet("y"),
			Apply: func(t trace.Trace) fn.Tuple { return fn.Tuple{t.Channel("x")} },
		},
		{
			// Its second component reads y outside the support, and one
			// element too many for growth 0.
			Name: "width-2", Out: 2, Support: trace.NewChanSet("x"),
			Apply: func(t trace.Trace) fn.Tuple {
				return fn.Tuple{t.Channel("x"), t.Channel("y").Append(value.Int(0))}
			},
		},
		{
			// An ω-approximation whose period is x's history, declaring the
			// empty support of a constant.
			Name: "omega", Out: 1, Support: trace.NewChanSet(), Growth: fn.OmegaPad, Omega: true,
			Apply: func(t trace.Trace) fn.Tuple {
				period := t.Channel("x")
				if period.IsEmpty() {
					period = seq.OfInts(0)
				}
				return fn.Tuple{seq.Repeat(period, t.Len()+fn.OmegaPad)}
			},
		},
	}
}

// irLiars are five sides that lower to bytecode and break their
// declared contracts, over channels x and y: each is built by lowering
// combinators, and then its Support, Growth or Omega is overwritten.
func irLiars() []fn.TraceFn {
	nothing := fn.ChanFn("x")
	nothing.Name, nothing.Support = "ir-reads-x-declares-nothing", trace.NewChanSet()
	wrong := fn.ChanFn("x")
	wrong.Name, wrong.Support = "ir-reads-x-declares-y", trace.NewChanSet("y")
	// Its second component reads y outside the support, and prepends
	// one element too many for growth 0.
	width2 := fn.Pair(fn.ChanFn("x"), fn.ApplySeq(fn.PrependFn(value.Int(0)), fn.ChanFn("y")))
	width2.Name, width2.Support, width2.Growth = "ir-width-2", trace.NewChanSet("x"), 0
	// An ω-approximation overlaid by x's history, declaring the empty
	// support of a constant. The overlay is an opaque closure, which the
	// VM calls: lowering combinators are monotone, and a monotone side
	// cannot break the ω check.
	overlay := fn.BiSeqFn{Name: "overlay", Apply: func(a, b seq.Seq) seq.Seq {
		if b.Len() >= a.Len() {
			return b
		}
		return b.Concat(a.Drop(b.Len()))
	}}
	omega := fn.ApplyBi(overlay, fn.OmegaConstFn("zeros", seq.OfInts(0)), fn.ChanFn("x"))
	omega.Name, omega.Support = "ir-omega", trace.NewChanSet()
	// An ω-approximation that declares itself exact.
	exact := fn.OmegaConstFn("ir-omega-declared-exact", seq.OfInts(0))
	exact.Omega = false
	return []fn.TraceFn{nothing, wrong, width2, omega, exact}
}

// liarSystem puts each of the given liars on the left of one
// description, an honest reader of y on the right.
func liarSystem(ls []fn.TraceFn) (*eqlang.File, *eqlang.Program) {
	var ds []desc.Description
	for _, l := range ls {
		ds = append(ds, desc.Description{Name: l.Name, F: l, G: fn.ChanFn("y")})
	}
	return liarProgram(map[string][]value.Value{"x": value.Ints(0, 1), "y": value.Ints(0, 1, 2)}, ds...)
}

// checkProbe holds one probe to the definition: its samples are the
// breadth-first list, samples = refProbeTraces(p.Alphabet, depth, max),
// every indexed projection equals Trace.Project, and the findings equal
// the reference's.
func checkProbe(t *testing.T, name string, f *eqlang.File, p *eqlang.Program, depth, max int, samples []trace.Trace) {
	t.Helper()
	pr := newProbe(p.Alphabet, depth, max)
	if pr.tree.Size() != len(samples) {
		t.Fatalf("%s depth %d cap %d: %d samples, breadth-first list has %d", name, depth, max, pr.tree.Size(), len(samples))
	}
	for k := range samples {
		if got := pr.tree.Trace(trace.ID(k)); !got.Equal(samples[k]) {
			t.Fatalf("%s depth %d cap %d: sample %d is %s, want %s", name, depth, max, k, got, samples[k])
		}
	}
	for _, d := range p.System.Descs {
		for _, tf := range []fn.TraceFn{d.F, d.G} {
			pr.project(tf.Support)
			for k, s := range samples {
				if got, want := pr.tree.Trace(trace.ID(pr.proj[k])), s.Project(tf.Support); !got.Equal(want) {
					t.Fatalf("%s depth %d cap %d: %s↾%v indexed as %s, want %s",
						name, depth, max, s, tf.Support.Names(), got, want)
				}
			}
		}
	}
	got, want := vetDeclaredContracts(f, p, pr), refContracts(f, p, samples)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s depth %d cap %d: findings\n%v\nwant\n%v", name, depth, max, got, want)
	}
}

// TestProbeMatchesDefinition holds the probe, which runs every side
// that lowers on bytecode, to the interpreted project-and-apply
// definition on every shipped and generated spec, a check-tier draw,
// four opaque liars and five that lower, across caps and depths.
func TestProbeMatchesDefinition(t *testing.T) {
	type spec struct {
		name string
		f    *eqlang.File
		p    *eqlang.Program
	}
	var specs []spec
	add := func(name, src string) {
		f, err := eqlang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := eqlang.Compile(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs = append(specs, spec{name, f, p})
	}
	var files []string
	for _, pattern := range []string{"*.eq", filepath.Join("generated", "*.eq")} {
		matched, err := filepath.Glob(filepath.Join("..", "..", "specs", pattern))
		if err != nil || len(matched) == 0 {
			t.Fatalf("no specs match %s: %v", pattern, err)
		}
		files = append(files, matched...)
	}
	sort.Strings(files)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		add(filepath.Base(file), string(src))
	}
	ins, err := netgen.Corpus("all", 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		add(in.Name, in.Source)
	}
	for _, l := range irLiars() {
		if _, ok := descvm.Compile(l); !ok {
			t.Fatalf("%s does not lower", l.Name)
		}
	}
	f, p := liarSystem(liars())
	irf, irp := liarSystem(irLiars())
	specs = append(specs, spec{"liars", f, p}, spec{"ir-liars", irf, irp})

	for _, s := range specs {
		// Pairs that list as many samples list the same ones.
		sizes := map[int]bool{}
		for _, max := range []int{1, 2, 5, 17, 64, 256} {
			for depth := 0; depth <= 4; depth++ {
				samples := refProbeTraces(s.p.Alphabet, depth, max)
				if !sizes[len(samples)] {
					sizes[len(samples)] = true
					checkProbe(t, s.name, s.f, s.p, depth, max, samples)
				}
			}
		}
	}
	if got := vetDeclaredContracts(f, p, newProbe(p.Alphabet, probeDepth, maxProbeTraces)); len(got) != 5 {
		t.Errorf("liars: %d findings, want a support-mismatch from each and a growth-bound from width-2:\n%v", len(got), got)
	}
	if got := vetDeclaredContracts(irf, irp, newProbe(irp.Alphabet, probeDepth, maxProbeTraces)); len(got) != 6 {
		t.Errorf("ir-liars: %d findings, want a support-mismatch from each and a growth-bound from ir-width-2:\n%v", len(got), got)
	}
}

// TestContractProbeReachesInterpreterOnlyForOpaqueSides: every side of
// fairmerge.eq lowers, so the contract check runs them on bytecode and
// never applies one through the interpreter. Stripped of their IR, the
// same sides take the fallback loop, which applies each once per probe
// trace and once more per change of support projection.
func TestContractProbeReachesInterpreterOnlyForOpaqueSides(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "fairmerge.eq"))
	if err != nil {
		t.Fatal(err)
	}
	sideNames := [2]string{"left", "right"}
	// counted compiles a fresh copy of the spec whose sides count their
	// interpreted applications, and are stripped of their IR if opaque
	// is set.
	counted := func(t *testing.T, opaque bool) (*eqlang.File, *eqlang.Program, []int) {
		f, err := eqlang.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		p, err := eqlang.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.System.Descs) < 2 {
			t.Fatalf("want a multi-description spec, got %d descriptions", len(p.System.Descs))
		}
		counts := make([]int, 2*len(p.System.Descs))
		for i := range p.System.Descs {
			for s, tf := range []*fn.TraceFn{&p.System.Descs[i].F, &p.System.Descs[i].G} {
				if _, ok := descvm.Compile(*tf); !ok {
					t.Fatalf("description %d %s side does not lower", i, sideNames[s])
				}
				if opaque {
					tf.IR = nil
				}
				apply, n := tf.Apply, &counts[2*i+s]
				tf.Apply = func(t trace.Trace) fn.Tuple {
					*n++
					return apply(t)
				}
			}
		}
		return f, p, counts
	}
	vet := func(t *testing.T, f *eqlang.File, p *eqlang.Program) *probe {
		pr := newProbe(p.Alphabet, probeDepth, maxProbeTraces)
		if ds := vetDeclaredContracts(f, p, pr); len(ds) != 0 {
			t.Fatalf("shipped spec breaks a declared contract: %v", ds)
		}
		return pr
	}

	t.Run("lowered", func(t *testing.T) {
		f, p, counts := counted(t, false)
		vet(t, f, p)
		for i, n := range counts {
			if n != 0 {
				t.Errorf("description %d %s side: %d interpreted applications, want none", i/2, sideNames[i%2], n)
			}
		}
	})
	t.Run("opaque", func(t *testing.T) {
		f, p, counts := counted(t, true)
		pr := vet(t, f, p)
		for i, d := range p.System.Descs {
			for s, tf := range [2]fn.TraceFn{d.F, d.G} {
				pr.project(tf.Support)
				changes, last := 0, -1
				for _, j := range pr.proj {
					if j != last {
						changes, last = changes+1, j
					}
				}
				if n, want := counts[2*i+s], pr.tree.Size()+changes; n != want {
					t.Errorf("description %d %s side: %d applications over %d probe traces and %d changes of projection, want %d",
						i, sideNames[s], n, pr.tree.Size(), changes, want)
				}
			}
		}
	})
}

// TestContractFindingsLeftBeforeRight: when both sides of a description
// break the same rule, their findings tie on every sort key, so the
// left side's must be produced first, every time.
func TestContractFindingsLeftBeforeRight(t *testing.T) {
	l := liars()[0]
	f, p := liarProgram(map[string][]value.Value{"x": value.Ints(0, 1)},
		desc.Description{Name: "d0", F: l, G: l},
		desc.Description{Name: "d1", F: l, G: l})
	want := []string{"d0: left", "d0: right", "d1: left", "d1: right"}
	for call := 0; call < 20; call++ {
		ds := vetDeclaredContracts(f, p, newProbe(p.Alphabet, probeDepth, maxProbeTraces))
		sortFindings(ds)
		if len(ds) != len(want) {
			t.Fatalf("call %d: %d findings, want %d: %v", call, len(ds), len(want), ds)
		}
		for i, d := range ds {
			if d.Rule != "support-mismatch" || !strings.HasPrefix(d.Message, want[i]) {
				t.Fatalf("call %d: finding %d is %q, want a support-mismatch starting %q", call, i, d.Message, want[i])
			}
		}
	}
}

// FuzzProbeProjections checks the probe's heap-order index on random
// alphabets, depths, caps and supports: the samples are the
// breadth-first list, every indexed projection is Trace.Project, and a
// liar's findings are the definition's.
//
// The input bytes read, in order: the channel count (1–4), each
// channel's value count (1–4), the depth (0–4), two bytes of cap
// (1–300), the declared support's channel mask, the mask of channels
// the liar reads, and a flags byte (bit 0 ω, bits 1–2 padding, bits 3–4
// declared growth, bit 5 lowered). An opaque liar concatenates the
// histories it reads and appends its padding; a lowered one, built from
// lowering combinators so that the probe runs it on bytecode, pairs the
// histories it reads (an ω constant after them when ω is set), prepends
// its padding to the first and then overwrites its declared support,
// growth and ω flag.
func FuzzProbeProjections(f *testing.F) {
	f.Add([]byte{1, 1, 1, 3, 1, 43, 1, 3, 0})        // 2×2 events, depth 3, all 85 samples: reads b outside {a}
	f.Add([]byte{2, 2, 0, 1, 4, 0, 99, 2, 2, 0})     // 6 events, depth 4 cut at 100: honest reader of b
	f.Add([]byte{1, 3, 1, 2, 0, 20, 2, 3, 1})        // depth 2 cut at 21: ω liar reading a and b, declaring {b}
	f.Add([]byte{3, 0, 1, 2, 3, 3, 1, 0, 15, 5, 12}) // 10 events, depth 3 cut at 257: two pads over growth 1
	f.Add([]byte{1, 1, 1, 3, 1, 43, 1, 3, 32})       // the first seed's lie, lowered
	f.Add([]byte{1, 1, 2, 3, 1, 43, 2, 3, 45})       // lowered ω, declaring {b}, two pads over growth 1
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		alphabet := map[string][]value.Value{}
		var chans []string
		for c, nch := 0, 1+next()%4; c < nch; c++ {
			ch := string(rune('a' + c))
			chans = append(chans, ch)
			for v, nv := 0, 1+next()%4; v < nv; v++ {
				alphabet[ch] = append(alphabet[ch], value.Int(int64(v)))
			}
		}
		depth := next() % 5
		max := 1 + (next()<<8|next())%300
		mask := func() trace.ChanSet {
			bits, s := next(), trace.NewChanSet()
			for i, ch := range chans {
				if bits&(1<<i) != 0 {
					s[ch] = true
				}
			}
			return s
		}
		support, reads := mask(), mask()
		flags := next()
		pad := flags >> 1 & 3
		liar := fn.TraceFn{
			Out: 1,
			Apply: func(t trace.Trace) fn.Tuple {
				var out seq.Seq
				for _, ch := range chans {
					if reads[ch] {
						out = out.Concat(t.Channel(ch))
					}
				}
				for i := 0; i < pad; i++ {
					out = out.Append(value.Int(9))
				}
				return fn.Tuple{out}
			},
		}
		if flags&32 != 0 {
			var parts []fn.TraceFn
			for _, ch := range chans {
				if reads[ch] {
					parts = append(parts, fn.ChanFn(ch))
				}
			}
			if flags&1 != 0 {
				parts = append(parts, fn.OmegaConstFn("nines", seq.OfInts(9)))
			}
			if len(parts) == 0 {
				parts = append(parts, fn.ConstTraceFn(seq.Empty))
			}
			if pad > 0 {
				parts[0] = fn.ApplySeq(fn.PrependFn(seq.Repeat(seq.OfInts(9), pad)...), parts[0])
			}
			liar = fn.Pair(parts...)
			if _, ok := descvm.Compile(liar); !ok {
				t.Fatal("lowered liar does not lower")
			}
		}
		liar.Name, liar.Support, liar.Growth, liar.Omega = "liar", support, flags>>3&3, flags&1 != 0
		file, p := liarProgram(alphabet, desc.Description{Name: "d", F: liar, G: fn.ChanFn(chans[0])})
		checkProbe(t, "fuzz", file, p, depth, max, refProbeTraces(alphabet, depth, max))
	})
}
