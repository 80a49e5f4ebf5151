package reconstruct

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"priview/internal/marginal"
)

// Property: IPF and dual ascent are two solvers for the same convex
// program, so on consistent constraints they must land on the same
// table.
func TestDualAgreesWithIPF(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		joint := randomJoint(r, []int{0, 1, 2}, 150)
		cons := []*marginal.Table{
			joint.Project([]int{0, 1}),
			joint.Project([]int{1, 2}),
		}
		ipf := must(t)(Prepare([]int{0, 1, 2}, 150, cons).MaxEnt(context.Background(), Options{}))
		dual := must(t)(Prepare([]int{0, 1, 2}, 150, cons).MaxEntDual(context.Background(), Options{MaxIter: 2000}))
		return marginal.Equal(ipf, dual, 0.05)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDualSatisfiesConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	joint := randomJoint(r, []int{0, 1, 2, 3}, 300)
	cons := []*marginal.Table{
		joint.Project([]int{0, 1}),
		joint.Project([]int{1, 2}),
		joint.Project([]int{2, 3}),
	}
	got := must(t)(Prepare([]int{0, 1, 2, 3}, 300, cons).MaxEntDual(context.Background(), Options{MaxIter: 3000}))
	if v := maxConstraintViolation(got, cons); v > 0.5 {
		t.Errorf("max violation = %v", v)
	}
	for _, v := range got.Cells {
		if v < 0 {
			t.Errorf("negative cell %v (log-linear form should forbid this)", v)
		}
	}
}

func TestDualNoConstraints(t *testing.T) {
	got := must(t)(Prepare([]int{0, 1}, 60, nil).MaxEntDual(context.Background(), Options{}))
	for _, v := range got.Cells {
		if v != 15 {
			t.Errorf("cells = %v, want uniform 15", got.Cells)
			break
		}
	}
}

func TestDualZeroTotal(t *testing.T) {
	got := must(t)(Prepare([]int{0}, 0, nil).MaxEntDual(context.Background(), Options{}))
	if got.Total() != 0 {
		t.Errorf("total = %v", got.Total())
	}
}
