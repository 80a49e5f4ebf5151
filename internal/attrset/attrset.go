// Package attrset is the repository's single representation of an
// attribute set: a bitmask over the global attribute indices, packed
// into one machine word. Every layer of the pipeline manipulates
// attribute sets — view planning, the consistency closure (§4.4),
// constraint preparation for max-entropy reconstruction (§4.3), the
// query cache key, and the release audit — and before this package each
// invented its own encoding (sorted []int slices with O(n) merge loops,
// private uint64 masks, string keys). A Set unifies them: subset tests,
// intersections and unions are single word operations, cardinality is a
// popcount, and map keys are the word itself.
//
// The representation leans on the repo-wide invariant that attribute
// indices live in [0, MaxAttr): datasets are capped at 64 binary
// attributes (dataset.MaxDim), so any attribute set fits one uint64.
// That invariant is enforced here, once, through FromAttrs' typed
// ErrRange error; boundaries that accept external input
// (core.Config.Validate, core.Load, covering.WorkloadCover) surface it
// as a wrapped error, while interior constructors that receive
// already-validated attributes use MustFromAttrs, whose panic marks a
// caller bug rather than bad input.
package attrset

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// MaxAttr is the exclusive upper bound on attribute indices: a Set
// packs indices into a single uint64, mirroring dataset.MaxDim.
const MaxAttr = 64

// ErrRange reports an attribute index outside [0, MaxAttr). Errors
// returned by FromAttrs match it under errors.Is.
var ErrRange = errors.New("attrset: attribute out of range [0, 64)")

// ErrDuplicate reports a repeated attribute index. A set over a
// multiset of attributes is meaningless (mirroring marginal.New's
// duplicate rejection), so FromAttrs refuses rather than silently
// collapsing duplicates.
var ErrDuplicate = errors.New("attrset: duplicate attribute")

// Set is an attribute set as a bitmask: bit a is set when attribute a
// is a member. The zero value is the empty set. Sets are values —
// comparable, usable as map keys, and copied freely.
type Set uint64

// FromAttrs packs an attribute slice into a Set, validating the
// [0, MaxAttr) range invariant and rejecting duplicates. This is the
// single enforcement point of the repo-wide d < 64 rule; boundary code
// wraps the returned error, interior code uses MustFromAttrs.
func FromAttrs(attrs []int) (Set, error) {
	var s Set
	for _, a := range attrs {
		if a < 0 || a >= MaxAttr {
			return 0, fmt.Errorf("%w: %d", ErrRange, a)
		}
		bit := Set(1) << uint(a)
		if s&bit != 0 {
			return 0, fmt.Errorf("%w: %d", ErrDuplicate, a)
		}
		s |= bit
	}
	return s, nil
}

// MustFromAttrs is FromAttrs for attributes already validated at a
// boundary; an error here is a caller bug, not bad input.
func MustFromAttrs(attrs []int) Set {
	s, err := FromAttrs(attrs)
	if err != nil {
		panic(fmt.Sprintf("attrset: %v", err))
	}
	return s
}

// Of builds a Set from individual indices; it panics on out-of-range
// or duplicate indices (intended for literals and tests).
func Of(attrs ...int) Set { return MustFromAttrs(attrs) }

// Contains reports whether attribute a is a member. Indices outside
// [0, MaxAttr) are never members.
func (s Set) Contains(a int) bool {
	return a >= 0 && a < MaxAttr && s&(Set(1)<<uint(a)) != 0
}

// Card returns the set's cardinality (a popcount).
func (s Set) Card() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return s == 0 }

// Subset reports whether s ⊆ t — branch-free: s has no bit outside t.
func (s Set) Subset(t Set) bool { return s&^t == 0 }

// ProperSubset reports whether s ⊊ t.
func (s Set) ProperSubset(t Set) bool { return s != t && s&^t == 0 }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// ForEach calls fn for every member in ascending order.
func (s Set) ForEach(fn func(a int)) {
	for m := uint64(s); m != 0; m &= m - 1 {
		fn(bits.TrailingZeros64(m))
	}
}

// Attrs returns the members as a sorted ascending slice, the
// round-trip inverse of FromAttrs.
func (s Set) Attrs() []int {
	return s.AppendAttrs(make([]int, 0, s.Card()))
}

// AppendAttrs appends the members in ascending order to dst and
// returns the extended slice, for callers reusing a buffer.
func (s Set) AppendAttrs(dst []int) []int {
	for m := uint64(s); m != 0; m &= m - 1 {
		dst = append(dst, bits.TrailingZeros64(m))
	}
	return dst
}

// Rank returns the number of members of s strictly below a: the bit
// position attribute a occupies in the cell indexing of a table over s.
// It is meaningful whether or not a is a member.
func (s Set) Rank(a int) int {
	if a <= 0 {
		return 0
	}
	if a >= MaxAttr {
		return s.Card()
	}
	return bits.OnesCount64(uint64(s) & (uint64(1)<<uint(a) - 1))
}

// String renders the set for debugging, e.g. "{0,3,17}".
func (s Set) String() string {
	b := []byte{'{'}
	first := true
	s.ForEach(func(a int) {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, []byte(fmt.Sprintf("%d", a))...)
	})
	return string(append(b, '}'))
}

// PosMask returns the positions sub's members occupy within super's
// cell indexing, as a bitmask over bit positions [0, super.Card()):
// bit j is set when the j-th smallest member of super belongs to sub.
// sub must be a subset of super; stray members are ignored by the
// masking (callers validate subset-ness where it is not structural).
func PosMask(sub, super Set) uint64 {
	var pm uint64
	j := 0
	for m := uint64(super); m != 0; m &= m - 1 {
		if uint64(sub)&(m&-m) != 0 {
			pm |= 1 << uint(j)
		}
		j++
	}
	return pm
}

// RestrictTable maps every cell index of a 2^dim-cell table over a
// superset onto the corresponding cell index of the table over the
// subset whose positions within the superset are posMask (from
// PosMask), in O(2^dim): out[i] is the subset-table cell that cell i
// projects into, the selected index bits of i extracted and compacted
// (a software PEXT). Each index is derived from the index with its
// lowest bit cleared, so the whole table costs O(1) per cell — this is
// the branch-free fast path under the max-entropy iteration loop,
// replacing an O(|sub|) bit-gather per cell per iteration.
func RestrictTable(dim int, posMask uint64) []int32 {
	delta := make([]int32, dim)
	r := 0
	for p := 0; p < dim; p++ {
		if posMask>>uint(p)&1 == 1 {
			delta[p] = 1 << uint(r)
			r++
		}
	}
	out := make([]int32, 1<<uint(dim))
	//lint:hot
	for i := 1; i < len(out); i++ {
		out[i] = out[i&(i-1)] + delta[bits.TrailingZeros64(uint64(i))]
	}
	return out
}

// IntersectionClosure returns every set expressible as an intersection
// of one or more of the input sets, always including the empty set.
// The result is sorted by cardinality ascending (ties by numeric
// value), a linear extension of the subset partial order — the
// processing order the consistency pass needs (§4.4). Only sets
// contained in at least two inputs are kept (a set held by a single
// view has nothing to reconcile), except ∅, which is kept
// unconditionally for total-count consistency.
//
// This is the shared closure kernel of consistency.Overall and
// categorical.Overall; both previously carried private copies.
func IntersectionClosure(sets []Set) []Set {
	closure := map[Set]struct{}{}
	var members, work []Set
	push := func(m Set) {
		if _, ok := closure[m]; !ok {
			closure[m] = struct{}{}
			members = append(members, m)
			work = append(work, m)
		}
	}
	push(0)
	for _, s := range sets {
		push(s)
	}
	// Fixpoint: intersect every work item against all known members.
	// Members only grow, and every pair is eventually intersected, so
	// the result is closed under intersection.
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for i := 0; i < len(members); i++ {
			push(cur & members[i])
		}
	}
	out := make([]Set, 0, len(closure))
	for m := range closure {
		if m == 0 {
			out = append(out, m)
			continue
		}
		n := 0
		for _, s := range sets {
			if m.Subset(s) {
				n++
				if n == 2 {
					break
				}
			}
		}
		if n >= 2 {
			out = append(out, m)
		}
	}
	sortClosure(out)
	return out
}

// sortClosure orders sets by cardinality ascending, ties by value — a
// deterministic topological order of the subset relation.
func sortClosure(out []Set) {
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Card(), out[j].Card()
		if ci != cj {
			return ci < cj
		}
		return out[i] < out[j]
	})
}
