package attrset

import (
	"errors"
	"math/bits"
	"reflect"
	"sort"
	"testing"
)

// lcg is a tiny deterministic generator so the property tests never
// touch math/rand (the randsource lint rule) and replay identically.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// randomAttrs draws a random strictly-ascending attribute slice over
// [0, bound).
func randomAttrs(r *lcg, bound int) []int {
	var out []int
	for a := 0; a < bound; a++ {
		if r.next()%3 == 0 {
			out = append(out, a)
		}
	}
	return out
}

func TestFromAttrsValidation(t *testing.T) {
	if _, err := FromAttrs([]int{0, 5, 63}); err != nil {
		t.Fatalf("valid attrs rejected: %v", err)
	}
	if _, err := FromAttrs(nil); err != nil {
		t.Fatalf("empty attrs rejected: %v", err)
	}
	for _, bad := range [][]int{{-1}, {64}, {0, 64}, {1 << 20}} {
		if _, err := FromAttrs(bad); !errors.Is(err, ErrRange) {
			t.Errorf("FromAttrs(%v) error = %v, want ErrRange", bad, err)
		}
	}
	for _, bad := range [][]int{{3, 3}, {0, 1, 0}} {
		if _, err := FromAttrs(bad); !errors.Is(err, ErrDuplicate) {
			t.Errorf("FromAttrs(%v) error = %v, want ErrDuplicate", bad, err)
		}
	}
}

func TestMustFromAttrsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromAttrs accepted an out-of-range attribute")
		}
	}()
	MustFromAttrs([]int{64})
}

func TestRoundTrip(t *testing.T) {
	r := lcg(7)
	for trial := 0; trial < 200; trial++ {
		attrs := randomAttrs(&r, 64)
		s := MustFromAttrs(attrs)
		got := s.Attrs()
		if len(attrs) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty set round-trips to %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, attrs) {
			t.Fatalf("round trip: %v -> %v", attrs, got)
		}
		if s.Card() != len(attrs) {
			t.Fatalf("Card() = %d, want %d", s.Card(), len(attrs))
		}
	}
}

func TestContainsAndRank(t *testing.T) {
	s := Of(1, 5, 9, 40)
	for _, a := range []int{1, 5, 9, 40} {
		if !s.Contains(a) {
			t.Errorf("Contains(%d) = false", a)
		}
	}
	for _, a := range []int{-3, 0, 2, 41, 64, 100} {
		if s.Contains(a) {
			t.Errorf("Contains(%d) = true", a)
		}
	}
	// Rank(a) = members strictly below a = the bit position a would
	// occupy in cell indexing.
	wantRank := map[int]int{0: 0, 1: 0, 2: 1, 5: 1, 6: 2, 9: 2, 10: 3, 40: 3, 41: 4, 64: 4}
	for a, want := range wantRank {
		if got := s.Rank(a); got != want {
			t.Errorf("Rank(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestString(t *testing.T) {
	if got := Of(0, 3, 17).String(); got != "{0,3,17}" {
		t.Errorf("String() = %q", got)
	}
	if got := Set(0).String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestForEachOrder(t *testing.T) {
	var got []int
	Of(2, 30, 63).ForEach(func(a int) { got = append(got, a) })
	if !reflect.DeepEqual(got, []int{2, 30, 63}) {
		t.Errorf("ForEach order = %v", got)
	}
}

// --- Property tests against the sorted-slice reference implementations.

// sliceIntersect/sliceUnion/sliceSubset mirror the marginal package's
// reference helpers (kept there for ad-hoc slices); duplicated here so
// attrset does not import marginal.
func sliceIntersect(a, b []int) []int {
	var out []int
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
			}
		}
	}
	sort.Ints(out)
	return out
}

func sliceUnion(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range append(append([]int(nil), a...), b...) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func sliceSubset(a, b []int) bool {
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestSetOpsMatchSliceReference(t *testing.T) {
	r := lcg(42)
	for trial := 0; trial < 500; trial++ {
		as := randomAttrs(&r, 64)
		bs := randomAttrs(&r, 64)
		a, b := MustFromAttrs(as), MustFromAttrs(bs)

		if got, want := a.Intersect(b).Attrs(), sliceIntersect(as, bs); !sameInts(got, want) {
			t.Fatalf("Intersect(%v, %v) = %v, want %v", as, bs, got, want)
		}
		if got, want := a.Union(b).Attrs(), sliceUnion(as, bs); !sameInts(got, want) {
			t.Fatalf("Union(%v, %v) = %v, want %v", as, bs, got, want)
		}
		if got, want := a.Subset(b), sliceSubset(as, bs); got != want {
			t.Fatalf("Subset(%v, %v) = %v, want %v", as, bs, got, want)
		}
		if got, want := a.ProperSubset(b), sliceSubset(as, bs) && len(as) != len(bs); got != want {
			t.Fatalf("ProperSubset(%v, %v) = %v, want %v", as, bs, got, want)
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// referenceRestrictIndex is the pre-attrset per-cell bit-gather
// (marginal.RestrictIndex's shape): pos lists the bit positions of the
// sub-attributes within the super table's indexing, sorted ascending.
func referenceRestrictIndex(idx int, pos []int) int {
	out := 0
	for j, p := range pos {
		out |= ((idx >> uint(p)) & 1) << uint(j)
	}
	return out
}

func TestRestrictIndexMatchesReference(t *testing.T) {
	r := lcg(3)
	for trial := 0; trial < 200; trial++ {
		super := randomAttrs(&r, 16)
		if len(super) == 0 {
			continue
		}
		superSet := MustFromAttrs(super)
		// Random subset of super.
		var sub []int
		for _, a := range super {
			if r.next()%2 == 0 {
				sub = append(sub, a)
			}
		}
		subSet := MustFromAttrs(sub)
		pm := PosMask(subSet, superSet)
		// pos positions via Rank, as marginal.Positions computes them.
		pos := make([]int, len(sub))
		for i, a := range sub {
			pos[i] = superSet.Rank(a)
		}
		dim := superSet.Card()
		table := RestrictTable(dim, pm)
		for idx := 0; idx < 1<<uint(dim); idx++ {
			want := referenceRestrictIndex(idx, pos)
			if got := int(table[idx]); got != want {
				t.Fatalf("RestrictTable[%d] = %d, want %d (super %v sub %v)", idx, got, want, super, sub)
			}
		}
	}
}

func TestPosMask(t *testing.T) {
	super := Of(2, 5, 9, 11)
	if got := PosMask(Of(5, 11), super); got != 0b1010 {
		t.Errorf("PosMask = %b, want 1010", got)
	}
	if got := PosMask(0, super); got != 0 {
		t.Errorf("PosMask(empty) = %b", got)
	}
	if got := PosMask(super, super); got != 0b1111 {
		t.Errorf("PosMask(self) = %b, want 1111", got)
	}
	if got := PosMask(Of(0, 5, 7, 63), Of(5, 63)); got != 0b11 {
		t.Errorf("PosMask(stray members) = %b, want 11", got)
	}
}

func TestIntersectionClosureProperties(t *testing.T) {
	r := lcg(11)
	for trial := 0; trial < 100; trial++ {
		n := 2 + int(r.next()%5)
		sets := make([]Set, n)
		for i := range sets {
			sets[i] = MustFromAttrs(randomAttrs(&r, 12))
		}
		closure := IntersectionClosure(sets)

		member := map[Set]bool{}
		for _, m := range closure {
			member[m] = true
		}
		if !member[0] {
			t.Fatal("closure must contain the empty set")
		}
		// Pairwise intersections held by >= 2 inputs must be present.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m := sets[i].Intersect(sets[j])
				if !member[m] {
					t.Fatalf("closure missing %v = %v ∩ %v", m, sets[i], sets[j])
				}
			}
		}
		// Closed under intersection.
		for _, a := range closure {
			for _, b := range closure {
				if !member[a.Intersect(b)] {
					t.Fatalf("closure not closed: %v ∩ %v missing", a, b)
				}
			}
		}
		// Sorted by cardinality then value: a valid linear extension of
		// the subset order.
		for i := 1; i < len(closure); i++ {
			ci, cj := closure[i-1].Card(), closure[i].Card()
			if ci > cj || (ci == cj && closure[i-1] >= closure[i]) {
				t.Fatalf("closure not sorted at %d: %v then %v", i, closure[i-1], closure[i])
			}
		}
		// Every non-empty member is contained in at least two inputs.
		for _, m := range closure {
			if m == 0 {
				continue
			}
			cnt := 0
			for _, s := range sets {
				if m.Subset(s) {
					cnt++
				}
			}
			if cnt < 2 {
				t.Fatalf("closure member %v held by %d inputs, want >= 2", m, cnt)
			}
		}
	}
}

// FuzzSetAlgebra checks the boolean-algebra identities that make Set a
// faithful set representation, for arbitrary word pairs.
func FuzzSetAlgebra(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0b1011), uint64(0b0110))
	f.Add(^uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, x, y uint64) {
		a, b := Set(x), Set(y)
		if a.Intersect(b) != b.Intersect(a) {
			t.Error("intersection not commutative")
		}
		if a.Union(b) != b.Union(a) {
			t.Error("union not commutative")
		}
		if got := a.Intersect(b).Card() + a.Union(b).Card(); got != a.Card()+b.Card() {
			t.Errorf("|a∩b| + |a∪b| = %d, want |a|+|b| = %d", got, a.Card()+b.Card())
		}
		if !a.Intersect(b).Subset(a) || !a.Intersect(b).Subset(b) {
			t.Error("intersection not a subset of both operands")
		}
		if !a.Subset(a.Union(b)) || !b.Subset(a.Union(b)) {
			t.Error("operands not subsets of the union")
		}
		if a.Subset(b) != (a.Intersect(b) == a) {
			t.Error("Subset inconsistent with intersection")
		}
		if a.Card() != bits.OnesCount64(x) {
			t.Error("Card is not popcount")
		}
	})
}

// FuzzFromAttrsRoundTrip feeds arbitrary masks through Attrs/FromAttrs.
func FuzzFromAttrsRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0b101))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, x uint64) {
		s := Set(x)
		back, err := FromAttrs(s.Attrs())
		if err != nil {
			t.Fatalf("round trip of %v failed: %v", s, err)
		}
		if back != s {
			t.Fatalf("round trip of %#x gave %#x", x, uint64(back))
		}
	})
}
