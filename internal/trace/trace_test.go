package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

func ev(ch string, n int64) Event { return E(ch, value.Int(n)) }

func sample() Trace {
	// The Section 3.1.1 example history for dfm.
	return Of(ev("b", 0), ev("c", 1), ev("c", 3), ev("d", 0), ev("d", 1), ev("b", 2))
}

func TestEventBasics(t *testing.T) {
	e := ev("b", 0)
	if e.String() != "(b,0)" {
		t.Errorf("String = %q", e.String())
	}
	if !e.Equal(ev("b", 0)) || e.Equal(ev("b", 1)) || e.Equal(ev("c", 0)) {
		t.Error("Event.Equal wrong")
	}
}

func TestTraceBasics(t *testing.T) {
	tr := sample()
	if tr.Len() != 6 || tr.IsEmpty() {
		t.Fatalf("sample = %s", tr)
	}
	if !Empty.IsEmpty() {
		t.Error("Empty not empty")
	}
	if !tr.At(3).Equal(ev("d", 0)) {
		t.Errorf("At(3) = %s", tr.At(3))
	}
	if got := tr.String(); got != "⟨(b,0)(c,1)(c,3)(d,0)(d,1)(b,2)⟩" {
		t.Errorf("String = %q", got)
	}
	if tr.Key() != sample().Key() {
		t.Error("Key should be structural: equal traces share a key")
	}
	if tr.Key() == tr.Take(3).Key() || tr.Key() == Empty.Key() {
		t.Error("distinct traces should (generically) have distinct keys")
	}
	if tr.Key() == tr.Take(tr.Len()-1).Append(E("b", value.Int(9))).Key() {
		t.Error("distinct same-length traces should (generically) have distinct keys")
	}
}

func TestPrefixOrderF1(t *testing.T) {
	tr := sample()
	for n := 0; n <= tr.Len(); n++ {
		if !tr.Take(n).Leq(tr) {
			t.Errorf("Take(%d) not ⊑ whole", n)
		}
	}
	if tr.Leq(tr.Take(3)) {
		t.Error("whole ⊑ strict prefix")
	}
	other := Of(ev("x", 9))
	if tr.Leq(other) || other.Leq(tr) {
		t.Error("unrelated traces compared as ordered")
	}
	if !Empty.Leq(tr) {
		t.Error("⊥ must be least")
	}
	if !tr.Compatible(tr.Take(2)) || tr.Compatible(other) {
		t.Error("Compatible wrong")
	}
}

func TestTakeAppendConcat(t *testing.T) {
	tr := Of(ev("a", 1))
	ext := tr.Append(ev("b", 2))
	if !ext.Equal(Of(ev("a", 1), ev("b", 2))) {
		t.Errorf("Append = %s", ext)
	}
	if !tr.Concat(tr).Equal(Of(ev("a", 1), ev("a", 1))) {
		t.Error("Concat wrong")
	}
	if !tr.Take(-5).Equal(Empty) || !tr.Take(99).Equal(tr) {
		t.Error("Take clamping wrong")
	}
}

func TestAppendDoesNotAlias(t *testing.T) {
	base := Of(ev("a", 1))
	x := base.Append(ev("b", 2))
	y := base.Append(ev("c", 3))
	if !x.At(1).Equal(ev("b", 2)) || !y.At(1).Equal(ev("c", 3)) {
		t.Error("Append aliased its receiver")
	}
}

func TestPrefixesF2(t *testing.T) {
	tr := sample()
	ps := tr.Prefixes()
	if len(ps) != tr.Len()+1 {
		t.Fatalf("%d prefixes", len(ps))
	}
	for i := 0; i+1 < len(ps); i++ {
		if !ps[i].Leq(ps[i+1]) {
			t.Errorf("prefixes not a chain at %d", i)
		}
	}
	if !ps[len(ps)-1].Equal(tr) {
		t.Error("lub of prefix chain should be the trace itself (F2)")
	}
}

func TestPrePairs(t *testing.T) {
	tr := Of(ev("a", 1), ev("b", 2))
	var seen [][2]int
	tr.PrePairs(func(u, v Trace) bool {
		seen = append(seen, [2]int{u.Len(), v.Len()})
		return true
	})
	if len(seen) != 2 || seen[0] != [2]int{0, 1} || seen[1] != [2]int{1, 2} {
		t.Errorf("PrePairs = %v", seen)
	}
	// Early stop.
	count := 0
	tr.PrePairs(func(u, v Trace) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	if !Pre(tr.Take(0), tr.Take(1), tr) || Pre(tr.Take(0), tr.Take(2), tr) {
		t.Error("Pre predicate wrong")
	}
}

func TestProjectionF3(t *testing.T) {
	tr := sample()
	l := NewChanSet("b", "d")
	got := tr.Project(l)
	want := Of(ev("b", 0), ev("d", 0), ev("d", 1), ev("b", 2))
	if !got.Equal(want) {
		t.Errorf("projection = %s, want %s", got, want)
	}
	// Continuity on the prefix chain (F3): images form a chain with lub
	// the image of the lub.
	var prev Trace
	for n := 0; n <= tr.Len(); n++ {
		cur := tr.Take(n).Project(l)
		if n > 0 && !prev.Leq(cur) {
			t.Fatalf("projection image not a chain at %d", n)
		}
		prev = cur
	}
	if !prev.Equal(got) {
		t.Error("projection not continuous")
	}
}

func TestChannelHistory(t *testing.T) {
	tr := sample()
	if got := tr.Channel("d"); !got.Equal(seq.OfInts(0, 1)) {
		t.Errorf("Channel(d) = %s", got)
	}
	if got := tr.Channel("nope"); !got.IsEmpty() {
		t.Errorf("Channel(nope) = %s", got)
	}
}

var channelSink seq.Seq

// TestChannelAllocatesOnlyItsResult: an absent channel costs no
// allocation and still yields a non-nil empty Seq; a present one costs
// one slice of exact size.
func TestChannelAllocatesOnlyItsResult(t *testing.T) {
	tr := sample()
	if n := testing.AllocsPerRun(100, func() { channelSink = tr.Channel("nope") }); n != 0 {
		t.Errorf("Channel(nope): %v allocs, want 0", n)
	}
	if got := tr.Channel("nope"); got == nil {
		t.Error("Channel(nope) is nil, want an empty Seq")
	}
	if n := testing.AllocsPerRun(100, func() { channelSink = tr.Channel("c") }); n != 1 {
		t.Errorf("Channel(c): %v allocs, want 1", n)
	}
	if got := tr.Channel("c"); !got.Equal(seq.OfInts(1, 3)) || cap(got) != 2 {
		t.Errorf("Channel(c) = %s with cap %d, want ⟨1 3⟩ with cap 2", got, cap(got))
	}
}

// TestNodeLayout pins a spine node at 64 bytes: a parent pointer, a
// 40-byte event (a channel name and a three-word Value), the length and
// the rolling hash. Every admitted son of a search costs one.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 64 {
		t.Errorf("unsafe.Sizeof(node{}) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 40", got)
	}
}

// TestNotComparable pins the guards that make == a compile error: a
// Trace, an Event and a Value each lead with a zero-size [0]func()
// field, so none of them is comparable, and a Trace stays 8 bytes.
func TestNotComparable(t *testing.T) {
	for _, v := range []any{Trace{}, Event{}, value.Value{}} {
		if reflect.TypeOf(v).Comparable() {
			t.Errorf("%T is comparable: == on it compiles", v)
		}
	}
	if got := unsafe.Sizeof(Trace{}); got != 8 {
		t.Errorf("unsafe.Sizeof(Trace{}) = %d, want 8", got)
	}
}

func TestChannels(t *testing.T) {
	got := sample().Channels()
	want := []string{"b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("Channels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Channels[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestChanSetOps(t *testing.T) {
	s := NewChanSet("a", "b")
	if !s.Has("a") || s.Has("c") {
		t.Error("Has wrong")
	}
	u := s.Union(NewChanSet("c"))
	if len(u.Names()) != 3 {
		t.Errorf("Union = %v", u.Names())
	}
	if !s.Intersects(NewChanSet("b", "z")) || s.Intersects(NewChanSet("z")) {
		t.Error("Intersects wrong")
	}
	w := s.Without("a")
	if w.Has("a") || !w.Has("b") || s.Has("a") == false {
		t.Error("Without must not mutate the receiver")
	}
}

func TestCheckF4(t *testing.T) {
	tr := sample()
	l := NewChanSet("d")
	for i := 0; i < tr.Len(); i++ {
		if err := CheckF4(tr.Take(i), tr.Take(i+1), tr, l); err != nil {
			t.Errorf("F4 at %d: %v", i, err)
		}
	}
	// Hypothesis failure.
	if err := CheckF4(tr.Take(0), tr.Take(2), tr, l); err == nil {
		t.Error("non-pre pair accepted")
	}
}

func TestF5Witness(t *testing.T) {
	tr := sample()
	l := NewChanSet("c", "d")
	ti := tr.Project(l)
	for i := 0; i < ti.Len(); i++ {
		u, v, err := F5Witness(ti.Take(i), ti.Take(i+1), tr, l)
		if err != nil {
			t.Fatalf("F5 at %d: %v", i, err)
		}
		if !Pre(u, v, tr) {
			t.Errorf("F5 witness not a pre pair: %s, %s", u, v)
		}
		if !u.Project(l).Equal(ti.Take(i)) || !v.Project(l).Equal(ti.Take(i+1)) {
			t.Errorf("F5 witness projections wrong at %d", i)
		}
	}
	if _, _, err := F5Witness(ti.Take(0), ti.Take(2), tr, l); err == nil {
		t.Error("non-pre input accepted")
	}
}

func TestGens(t *testing.T) {
	fin := FiniteGen(sample())
	if !fin.Prefix(3).Equal(sample().Take(3)) || !fin.Prefix(99).Equal(sample()) {
		t.Error("FiniteGen wrong")
	}
	cyc := CycleGen("ticks", Of(E("b", value.T)))
	if cyc.Prefix(3).Len() != 3 || !cyc.Prefix(3).At(2).Equal(E("b", value.T)) {
		t.Error("CycleGen wrong")
	}
	if !CycleGen("empty", Empty).Prefix(5).IsEmpty() {
		t.Error("empty-period cycle should generate ⊥")
	}
	fun := FuncGen("nats", func(i int) Event { return ev("b", int64(i)) })
	if !fun.Prefix(3).Equal(Of(ev("b", 0), ev("b", 1), ev("b", 2))) {
		t.Error("FuncGen wrong")
	}
	blocks := BlockGen("blocks", func(i int) Trace {
		return Of(ev("d", int64(i)), ev("d", int64(i)))
	})
	if !blocks.Prefix(3).Equal(Of(ev("d", 0), ev("d", 0), ev("d", 1))) {
		t.Errorf("BlockGen = %s", blocks.Prefix(3))
	}
	for _, g := range []Gen{fin, cyc, fun, blocks} {
		if err := CheckGenMonotone(g, 12); err != nil {
			t.Errorf("gen %s: %v", g.Name, err)
		}
	}
}

func TestCheckGenMonotoneCatchesBadGens(t *testing.T) {
	jumpy := Gen{Name: "jumpy", Prefix: func(n int) Trace {
		if n%2 == 0 {
			return Empty
		}
		return Of(ev("b", int64(n)))
	}}
	if err := CheckGenMonotone(jumpy, 6); err == nil {
		t.Error("non-monotone gen accepted")
	}
	tooLong := Gen{Name: "long", Prefix: func(n int) Trace {
		return Of(ev("b", 1), ev("b", 2))
	}}
	if err := CheckGenMonotone(tooLong, 6); err == nil {
		t.Error("over-length gen accepted")
	}
}

// genTrace builds arbitrary short traces over channels a, b and small
// integers for property tests.
type genTrace struct{ T Trace }

// Generate implements quick.Generator.
func (genTrace) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(7)
	tr := Empty
	chans := []string{"a", "b"}
	for i := 0; i < n; i++ {
		tr = tr.Append(E(chans[r.Intn(2)], value.Int(int64(r.Intn(3)))))
	}
	return reflect.ValueOf(genTrace{T: tr})
}

func TestQuickProjectionMonotoneF3(t *testing.T) {
	l := NewChanSet("a")
	f := func(a genTrace, n int) bool {
		p := a.T.Take(n % 8)
		return p.Project(l).Leq(a.T.Project(l))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickF4Holds(t *testing.T) {
	l := NewChanSet("b")
	f := func(a genTrace) bool {
		for i := 0; i < a.T.Len(); i++ {
			if CheckF4(a.T.Take(i), a.T.Take(i+1), a.T, l) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickF5Holds(t *testing.T) {
	l := NewChanSet("a")
	f := func(a genTrace) bool {
		ti := a.T.Project(l)
		for i := 0; i < ti.Len(); i++ {
			if _, _, err := F5Witness(ti.Take(i), ti.Take(i+1), a.T, l); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickProjectionSplitsLength(t *testing.T) {
	l := NewChanSet("a")
	m := NewChanSet("b")
	f := func(a genTrace) bool {
		return a.T.Project(l).Len()+a.T.Project(m).Len() == a.T.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
