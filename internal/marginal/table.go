// Package marginal implements marginal contingency tables over subsets
// of binary attributes, together with the projection, noising and
// normalization operations the PriView pipeline is built from.
//
// A table over an attribute set A = {a_0 < a_1 < ... < a_{m-1}} has 2^m
// cells. Cell index i encodes the assignment in which attribute a_j takes
// the value of bit j of i. All tables keep their attribute list sorted
// ascending so that two tables over the same set index cells identically.
package marginal

import (
	"fmt"
	"math"
	"sort"

	"priview/internal/attrset"
)

// Table is a (possibly noisy) marginal contingency table over a set of
// binary attributes identified by their global indices.
type Table struct {
	// Attrs lists the attributes the table marginalizes over, sorted
	// ascending. It must not be mutated after construction.
	Attrs []int
	// Cells holds one count per assignment; len(Cells) == 1<<len(Attrs).
	Cells []float64
	// mask is Attrs as an attrset bitmask, precomputed by New so that
	// set algebra on tables (subset tests, intersections, equality of
	// attribute sets) costs one word operation instead of a merge loop.
	mask attrset.Set
}

// New returns a zeroed table over the given attributes. The attribute
// slice is copied and sorted; duplicates cause a panic because a marginal
// over a multiset of attributes is meaningless, and indices outside
// [0, 64) are rejected here — tables carry their attribute set as a
// one-word attrset bitmask, leaning on the repo-wide d < 64 invariant
// that dataset and core.Config enforce with typed errors at the input
// boundary.
func New(attrs []int) *Table {
	a := append([]int(nil), attrs...)
	sort.Ints(a)
	mask, err := attrset.FromAttrs(a)
	if err != nil {
		panic(fmt.Sprintf("marginal: %v", err))
	}
	if len(a) > 30 {
		panic(fmt.Sprintf("marginal: table over %d attributes would need 2^%d cells", len(a), len(a)))
	}
	return &Table{Attrs: a, mask: mask, Cells: make([]float64, 1<<uint(len(a)))}
}

// FromCells returns a table over attrs that holds cells, keeping both
// slices rather than copies. attrs must be strictly ascending and in
// [0, 64), and cells must hold 1<<len(attrs) counts; it panics
// otherwise, as New does on attributes no table can hold.
func FromCells(attrs []int, cells []float64) *Table {
	mask, err := attrset.FromAttrs(attrs)
	if err != nil {
		panic(fmt.Sprintf("marginal: %v", err))
	}
	if len(attrs) > 30 || !sort.IntsAreSorted(attrs) || len(cells) != 1<<uint(len(attrs)) {
		panic(fmt.Sprintf("marginal: %d cells over attributes %v", len(cells), attrs))
	}
	return &Table{Attrs: attrs, Cells: cells, mask: mask}
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := &Table{
		Attrs: append([]int(nil), t.Attrs...),
		Cells: append([]float64(nil), t.Cells...),
		mask:  t.mask,
	}
	return c
}

// Mask returns the table's attribute set as an attrset bitmask. Tables
// built by New always carry the precomputed mask; a table assembled by
// struct literal (possible only for the zero mask) falls back to
// packing Attrs on the fly so the answer is correct either way.
func (t *Table) Mask() attrset.Set {
	if t.mask == 0 && len(t.Attrs) > 0 {
		return attrset.MustFromAttrs(t.Attrs)
	}
	return t.mask
}

// Dim returns the number of attributes the table covers.
func (t *Table) Dim() int { return len(t.Attrs) }

// Size returns the number of cells, 2^Dim.
func (t *Table) Size() int { return len(t.Cells) }

// Total returns the sum of all cells, i.e. T_A[∅] in the paper's
// notation. For a noise-free table this is N, the dataset size.
func (t *Table) Total() float64 {
	sum := 0.0
	for _, v := range t.Cells {
		sum += v
	}
	return sum
}

// Positions returns, for each attribute in sub, its bit position within
// the table's attribute list — its rank among the table's attributes,
// computed from the mask without a binary search. It panics if sub
// contains an attribute the table does not cover: projecting onto an
// uncovered attribute is always a caller bug.
func (t *Table) Positions(sub []int) []int {
	mask := t.Mask()
	pos := make([]int, len(sub))
	for i, a := range sub {
		if !mask.Contains(a) {
			panic(fmt.Sprintf("marginal: attribute %d not in table over %v", a, t.Attrs))
		}
		pos[i] = mask.Rank(a)
	}
	return pos
}

// RestrictIndex maps a cell index of this table to the corresponding cell
// index of a table over the sub-attributes whose bit positions (within
// this table) are given by pos. pos must be sorted ascending, which is
// automatic when produced by Positions on a sorted sub-set. Iteration
// loops that restrict every cell repeatedly should precompute the whole
// mapping once with RestrictIndices instead.
func RestrictIndex(idx int, pos []int) int {
	out := 0
	for j, p := range pos {
		out |= ((idx >> uint(p)) & 1) << uint(j)
	}
	return out
}

// restrictPrecomputeLimit bounds the table size for which Project and
// RestrictIndices materialize the full index mapping (4 bytes per
// cell). Above it — only reachable near the 30-attribute table cap —
// the per-cell bit-gather is used instead of a multi-hundred-MB side
// table.
const restrictPrecomputeLimit = 1 << 24

// RestrictIndices returns the precomputed projection mapping onto sub:
// out[i] is the cell of the sub-table that cell i of t projects into.
// Building it costs O(1) per cell; iterative solvers that restrict
// every cell once per iteration (max-entropy IPF, Dykstra) hoist it
// out of the loop, replacing an O(|sub|) bit-gather per cell per
// iteration with an array load.
func (t *Table) RestrictIndices(sub []int) []int32 {
	// The positions of sub within t, packed as a bitmask over bit
	// positions, are exactly the PEXT mask for the cell indexing.
	pm := attrset.MustFromAttrs(t.Positions(sub))
	return attrset.RestrictTable(t.Dim(), uint64(pm))
}

// ProjectInto accumulates t's cells into dst according to ridx (as
// produced by RestrictIndices), zeroing dst first. It is the
// allocation-free core of Project, shared with the solver hot loops.
func (t *Table) ProjectInto(dst []float64, ridx []int32) {
	for i := range dst {
		dst[i] = 0
	}
	//lint:hot
	for i, v := range t.Cells {
		dst[ridx[i]] += v
	}
}

// Project returns the marginal table over sub ⊆ Attrs, written T_A[sub]
// in the paper: cells of the projection are sums of the cells of t that
// agree with the corresponding assignment of sub. The cell mapping is
// precomputed via the table's attribute mask; projecting onto the full
// attribute set degenerates to a copy.
func (t *Table) Project(sub []int) *Table {
	out := New(sub)
	if out.mask == t.Mask() && len(out.Attrs) == len(t.Attrs) {
		copy(out.Cells, t.Cells)
		return out
	}
	if len(t.Cells) <= restrictPrecomputeLimit {
		t.ProjectInto(out.Cells, t.RestrictIndices(out.Attrs))
		return out
	}
	pos := t.Positions(out.Attrs)
	for i, v := range t.Cells {
		out.Cells[RestrictIndex(i, pos)] += v
	}
	return out
}

// sameSet reports whether two tables cover the same attribute set — a
// one-word mask comparison, the unified replacement for the old
// sorted-slice walk.
func (t *Table) sameSet(o *Table) bool { return t.Mask() == o.Mask() }

// AddInto adds src's cells into t. Both tables must cover exactly the
// same attribute set.
func (t *Table) AddInto(src *Table) {
	if !t.sameSet(src) {
		panic("marginal: AddInto over mismatched attribute sets")
	}
	for i := range t.Cells {
		t.Cells[i] += src.Cells[i]
	}
}

// Scale multiplies every cell by f in place.
func (t *Table) Scale(f float64) {
	for i := range t.Cells {
		t.Cells[i] *= f
	}
}

// Fill sets every cell to v.
func (t *Table) Fill(v float64) {
	for i := range t.Cells {
		t.Cells[i] = v
	}
}

// Uniform returns a table over attrs in which the given total mass is
// spread evenly over all cells. This is the paper's Uniform baseline for
// a single marginal.
func Uniform(attrs []int, total float64) *Table {
	t := New(attrs)
	t.Fill(total / float64(len(t.Cells)))
	return t
}

// Normalize divides every cell by the total so that cells sum to 1,
// yielding norm(T) in the paper. A table with non-positive total cannot
// be normalized meaningfully; it is replaced by the uniform distribution,
// which is what a consumer with no usable information must assume.
func (t *Table) Normalize() {
	total := t.Total()
	if total <= 0 {
		t.Fill(1 / float64(len(t.Cells)))
		return
	}
	t.Scale(1 / total)
}

// Normalized returns a normalized copy, leaving t untouched.
func (t *Table) Normalized() *Table {
	c := t.Clone()
	c.Normalize()
	return c
}

// ClampNegatives sets every negative cell to zero in place and returns
// the amount of mass that was removed (as a non-negative number).
func (t *Table) ClampNegatives() float64 {
	removed := 0.0
	for i, v := range t.Cells {
		if v < 0 {
			removed -= v
			t.Cells[i] = 0
		}
	}
	return removed
}

// L2Distance returns the Euclidean distance between two tables over the
// same attribute set, viewed as vectors of 2^k cells.
func L2Distance(a, b *Table) float64 {
	if !a.sameSet(b) {
		panic("marginal: L2Distance over mismatched attribute sets")
	}
	sum := 0.0
	for i := range a.Cells {
		d := a.Cells[i] - b.Cells[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// MaxAbsDiff returns the largest absolute cell-wise difference between
// two tables over the same attribute set.
func MaxAbsDiff(a, b *Table) float64 {
	if !a.sameSet(b) {
		panic("marginal: MaxAbsDiff over mismatched attribute sets")
	}
	m := 0.0
	for i := range a.Cells {
		d := math.Abs(a.Cells[i] - b.Cells[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Equal reports whether two tables cover the same attributes and agree on
// every cell to within tol. The attribute-set comparison is a one-word
// mask compare.
func Equal(a, b *Table, tol float64) bool {
	if !a.sameSet(b) {
		return false
	}
	for i := range a.Cells {
		if math.Abs(a.Cells[i]-b.Cells[i]) > tol {
			return false
		}
	}
	return true
}

// SameAttrs reports whether two sorted attribute slices denote the same
// attribute set. With the repo-wide d < 64 invariant both slices pack
// into single attrset masks, making this a word compare; slices that
// violate the invariant (possible only for ad-hoc caller input, never
// for Table.Attrs) fall back to an element-wise walk.
func SameAttrs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ma, errA := attrset.FromAttrs(a)
	mb, errB := attrset.FromAttrs(b)
	if errA == nil && errB == nil {
		return ma == mb
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Intersect returns the sorted intersection of two sorted attribute
// slices. Hot paths operate on attrset masks instead (Table.Mask);
// the slice versions remain as the reference implementation for
// ad-hoc slices and the attrset property tests.
func Intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Subset reports whether sorted slice a is a subset of sorted slice b.
func Subset(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

// Key returns a canonical string key for a sorted attribute set, suitable
// for use as a map key when deduplicating sets. Hot paths (constraint
// dedupe, the query cache) key on attrset masks instead — the word
// itself is the map key, with no per-call allocation; Key remains for
// cold paths (serialization, experiment labels) where a human-readable
// string is worth the allocation.
func Key(attrs []int) string {
	b := make([]byte, 0, len(attrs)*3)
	for _, a := range attrs {
		b = appendInt(b, a)
		b = append(b, ',')
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// String renders a small table for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("Table%v%v", t.Attrs, t.Cells)
}
