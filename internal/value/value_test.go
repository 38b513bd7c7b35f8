package value

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestConstructorsAndKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"int", Int(42), KindInt, "42"},
		{"negative int", Int(-7), KindInt, "-7"},
		{"zero", Int(0), KindInt, "0"},
		{"true", T, KindBool, "T"},
		{"false", F, KindBool, "F"},
		{"sym", Sym("tick"), KindSym, "tick"},
		{"pair", Pair(Int(0), Int(5)), KindPair, "(0,5)"},
		{"nested pair", Pair(Int(1), Pair(T, F)), KindPair, "(1,(T,F))"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if got := tt.v.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
			if tt.v.IsZero() {
				t.Error("IsZero() = true for a constructed value")
			}
		})
	}
}

func TestZeroValueIsInvalid(t *testing.T) {
	var v Value
	if !v.IsZero() {
		t.Error("zero Value should report IsZero")
	}
}

func TestAccessors(t *testing.T) {
	if n, ok := Int(9).AsInt(); !ok || n != 9 {
		t.Errorf("AsInt = (%d, %v)", n, ok)
	}
	if _, ok := T.AsInt(); ok {
		t.Error("AsInt on bool should fail")
	}
	if b, ok := T.AsBool(); !ok || !b {
		t.Errorf("AsBool(T) = (%v, %v)", b, ok)
	}
	if _, ok := Int(1).AsBool(); ok {
		t.Error("AsBool on int should fail")
	}
	if s, ok := Sym("x").AsSym(); !ok || s != "x" {
		t.Errorf("AsSym = (%q, %v)", s, ok)
	}
	p := Pair(Int(1), Sym("a"))
	a, b, ok := p.AsPair()
	if !ok || !a.Equal(Int(1)) || !b.Equal(Sym("a")) {
		t.Errorf("AsPair = (%s, %s, %v)", a, b, ok)
	}
	if !p.First().Equal(Int(1)) || !p.Second().Equal(Sym("a")) {
		t.Error("First/Second mismatch")
	}
	if _, _, ok := Int(1).AsPair(); ok {
		t.Error("AsPair on int should fail")
	}
}

func TestMustIntPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustInt on bool should panic")
		}
	}()
	T.MustInt()
}

func TestFirstPanicsOnNonPair(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("First on int should panic")
		}
	}()
	Int(3).First()
}

func TestParityPredicates(t *testing.T) {
	tests := []struct {
		v         Value
		even, odd bool
	}{
		{Int(0), true, false},
		{Int(2), true, false},
		{Int(1), false, true},
		{Int(-1), false, true}, // the paper's z sequence starts with -1
		{Int(-2), true, false},
		{T, false, false},
		{Sym("x"), false, false},
		{Pair(Int(0), Int(2)), false, false},
	}
	for _, tt := range tests {
		if got := tt.v.IsEvenInt(); got != tt.even {
			t.Errorf("IsEvenInt(%s) = %v, want %v", tt.v, got, tt.even)
		}
		if got := tt.v.IsOddInt(); got != tt.odd {
			t.Errorf("IsOddInt(%s) = %v, want %v", tt.v, got, tt.odd)
		}
	}
}

func TestBoolPredicates(t *testing.T) {
	if !T.IsTrue() || T.IsFalse() {
		t.Error("T predicates wrong")
	}
	if !F.IsFalse() || F.IsTrue() {
		t.Error("F predicates wrong")
	}
	if Int(1).IsTrue() || Int(0).IsFalse() {
		t.Error("ints are neither T nor F")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// A representative ladder in strictly increasing order.
	ladder := []Value{
		Int(-3), Int(0), Int(5),
		F, T,
		Sym("a"), Sym("b"),
		Pair(Int(0), Int(0)), Pair(Int(0), Int(1)), Pair(Int(1), Int(0)),
	}
	for i := range ladder {
		for j := range ladder {
			got := ladder[i].Compare(ladder[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%s, %s) = %d, want < 0", ladder[i], ladder[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%s, %s) = %d, want > 0", ladder[i], ladder[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%s, %s) = %d, want 0", ladder[i], ladder[j], got)
			}
		}
	}
}

func TestEqualStructural(t *testing.T) {
	if !Pair(Int(1), T).Equal(Pair(Int(1), T)) {
		t.Error("structurally equal pairs must be Equal")
	}
	if Pair(Int(1), T).Equal(Pair(Int(1), F)) {
		t.Error("different pairs must not be Equal")
	}
}

// randomValue builds an arbitrary Value of bounded depth for property
// tests.
func randomValue(r *rand.Rand, depth int) Value {
	switch k := r.Intn(4); {
	case k == 0:
		return Int(int64(r.Intn(21) - 10))
	case k == 1:
		return Bool(r.Intn(2) == 0)
	case k == 2:
		return Sym(string(rune('a' + r.Intn(4))))
	case depth <= 0:
		return Int(int64(r.Intn(5)))
	default:
		return Pair(randomValue(r, depth-1), randomValue(r, depth-1))
	}
}

// arb adapts randomValue to testing/quick.
type arb struct{ V Value }

// Generate implements quick.Generator.
func (arb) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(arb{V: randomValue(r, 2)})
}

func TestQuickRoundTripParse(t *testing.T) {
	f := func(a arb) bool {
		v, err := Parse(a.V.String())
		return err == nil && v.Equal(a.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareIsTotalOrder(t *testing.T) {
	antisym := func(a, b arb) bool {
		x, y := a.V.Compare(b.V), b.V.Compare(a.V)
		return (x == 0) == (y == 0) && (x < 0) == (y > 0)
	}
	if err := quick.Check(antisym, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	trans := func(a, b, c arb) bool {
		if a.V.Compare(b.V) <= 0 && b.V.Compare(c.V) <= 0 {
			return a.V.Compare(c.V) <= 0
		}
		return true
	}
	if err := quick.Check(trans, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("transitivity: %v", err)
	}
	eqAgrees := func(a, b arb) bool {
		return a.V.Equal(b.V) == (a.V.Compare(b.V) == 0)
	}
	if err := quick.Check(eqAgrees, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("Equal/Compare agreement: %v", err)
	}
}

func TestParseValid(t *testing.T) {
	tests := []struct {
		in   string
		want Value
	}{
		{"7", Int(7)},
		{"-12", Int(-12)},
		{"T", T},
		{"F", F},
		{"tick", Sym("tick")},
		{"  42  ", Int(42)},
		{"(0,5)", Pair(Int(0), Int(5))},
		{"( 1 , (T, F) )", Pair(Int(1), Pair(T, F))},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if !got.Equal(tt.want) {
			t.Errorf("Parse(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{"", "(", "(1", "(1,", "(1,2", "1 2", "Tq2(", "@", "-", "(,)"} {
		if v, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %s, want error", in, v)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on garbage should panic")
		}
	}()
	MustParse("((")
}

func TestIntsBoolsHelpers(t *testing.T) {
	vs := Ints(1, 2, 3)
	if len(vs) != 3 || !vs[2].Equal(Int(3)) {
		t.Errorf("Ints = %v", vs)
	}
	bs := Bools(true, false)
	if len(bs) != 2 || !bs[0].Equal(T) || !bs[1].Equal(F) {
		t.Errorf("Bools = %v", bs)
	}
}

func TestIntRange(t *testing.T) {
	got := IntRange(-1, 2)
	want := Ints(-1, 0, 1, 2)
	if len(got) != len(want) {
		t.Fatalf("IntRange(-1,2) has %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("IntRange[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if IntRange(3, 2) != nil {
		t.Error("empty range should be nil")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindInt: "int", KindBool: "bool", KindSym: "sym", KindPair: "pair", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func ExampleParse() {
	v, _ := Parse("(0,5)")
	fmt.Println(v.First(), v.Second())
	// Output: 0 5
}

// goldenValues are the values whose Hash64 and String the golden test
// pins: every kind, a negative and a wide int, symbols with digits and
// an underscore, and nested pairs.
func goldenValues() []Value {
	return []Value{
		Int(0), Int(-7), Int(1 << 40), T, F, Sym("chaos"), Sym("x_1"),
		Pair(Int(0), Int(10)), Pair(Sym("a"), Pair(T, Int(-3))),
	}
}

// TestHash64Golden pins Hash64 and String bit for bit. Trace keys are
// Hash64 chains, every stored checkpoint, result and session blob
// carries them, and decode fails when a recomputed key differs, so a
// change of representation must leave these numbers alone.
func TestHash64Golden(t *testing.T) {
	want := []struct {
		str  string
		hash uint64
	}{
		{"0", 0x910a2dec89025cc1},
		{"-7", 0xe8f938e3d92c0f81},
		{"1099511627776", 0x6d65027660c4cdc5},
		{"T", 0x1d0b14e4db018fed},
		{"F", 0x975835de1c9756ce},
		{"chaos", 0x721b5feb04fe4789},
		{"x_1", 0x2c50436ecc910cef},
		{"(0,10)", 0x0ce097e2aa6d2409},
		{"(a,(T,-3))", 0x2ee15cef683ffc6c},
	}
	for i, v := range goldenValues() {
		if got := v.String(); got != want[i].str {
			t.Errorf("value %d: String() = %q, want %q", i, got, want[i].str)
		}
		if got := v.Hash64(); got != want[i].hash {
			t.Errorf("%s: Hash64() = %#016x, want %#016x", v, got, want[i].hash)
		}
	}
}

// TestLayout pins the three-word layout: every trace event, carried f
// tuple and VM frame history holds Values, so a word more is a word more
// per node of every search. Ints and bools allocate nothing; a symbol or
// a pair allocates its one out-of-line payload.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	a, b := Int(1), Sym("b")
	sink := make([]Value, 1)
	for _, tt := range []struct {
		name string
		want float64
		mk   func() Value
	}{
		{"Int", 0, func() Value { return Int(7) }},
		{"Bool", 0, func() Value { return Bool(true) }},
		{"Sym", 1, func() Value { return Sym("chaos") }},
		{"Pair", 1, func() Value { return Pair(a, b) }},
	} {
		if got := testing.AllocsPerRun(100, func() { sink[0] = tt.mk() }); got != tt.want {
			t.Errorf("%s: %.1f allocs, want %.0f", tt.name, got, tt.want)
		}
	}
}

// TestPackedPairs: a pair of ints whose first fits in 32 bits is built
// without allocating, and reads, renders, orders and hashes as a pair
// held out of line does.
func TestPackedPairs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = Pair(Int(1), Int(1<<40)) }); n != 0 {
		t.Errorf("a tagged pair allocates %v times, want 0", n)
	}
	vals := []Value{
		Pair(Int(0), Int(-7)), Pair(Int(1), Int(1<<40)), Pair(Int(-1<<31), Int(3)),
		Pair(Int(1<<31), Int(3)), Pair(Int(1<<40), Int(0)), Pair(Int(0), T),
		Pair(T, Int(0)), Pair(Pair(Int(0), Int(1)), Int(2)), Pair(Int(2), Sym("x")),
	}
	for _, v := range vals {
		a, b := v.First(), v.Second()
		if got := a.String(); !Pair(a, b).Equal(v) || v.String() != "("+got+","+b.String()+")" {
			t.Errorf("%s does not rebuild from its components %s and %s", v, a, b)
		}
		if w := MustParse(v.String()); !w.Equal(v) || w.Hash64() != v.Hash64() || string(w.AppendTo(nil)) != v.String() {
			t.Errorf("%s does not round-trip through Parse", v)
		}
		want := hashMix(uint64(KindPair), hashMix(a.Hash64(), b.Hash64()))
		if v.Hash64() != want {
			t.Errorf("%s hashes to %x, want %x", v, v.Hash64(), want)
		}
		for _, w := range vals {
			c := a.Compare(w.First())
			if c == 0 {
				c = b.Compare(w.Second())
			}
			if sign(v.Compare(w)) != sign(c) {
				t.Errorf("%s vs %s: Compare %d, want the sign of %d", v, w, v.Compare(w), c)
			}
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}
