package core

import (
	"context"
	"errors"
	"testing"

	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/reconstruct"
)

func contextTestSynopsis() *Synopsis {
	data := synth.MSNBC(2000, 7)
	dg := covering.Groups(9, 6)
	return BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(11))
}

// TestQueryMethodContextCanceled: a canceled context aborts every
// estimator that needs iterative reconstruction, with the typed error.
func TestQueryMethodContextCanceled(t *testing.T) {
	s := contextTestSynopsis()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attrs := []int{0, 4, 8} // spans blocks: forces reconstruction
	for _, m := range []ReconstructMethod{CME, CLN, CLP} {
		_, err := s.QueryMethodContext(ctx, attrs, m)
		if !errors.Is(err, reconstruct.ErrCanceled) {
			t.Errorf("%s: err = %v, want reconstruct.ErrCanceled", m, err)
		}
	}
}

// TestQueryMethodContextCoveredIgnoresLateCancel: covered marginals are
// answered by direct projection with no iteration, so only a context
// already dead at entry can stop them.
func TestQueryMethodContextCovered(t *testing.T) {
	s := contextTestSynopsis()
	attrs := []int{0, 1} // inside the first design block: covered
	got, err := s.QueryMethodContext(context.Background(), attrs, CME)
	if err != nil {
		t.Fatal(err)
	}
	if !marginal.Equal(got, s.Query(attrs), 0) {
		t.Error("covered ctx query differs from Query")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryMethodContext(ctx, attrs, CME); !errors.Is(err, reconstruct.ErrCanceled) {
		t.Errorf("covered query with dead ctx: err = %v, want ErrCanceled", err)
	}
}
