package spectral

import (
	"context"
	"math"

	"hcd/internal/decomp"
	"hcd/internal/graph"
)

// PortraitRow is one eigenpair's entry in the Theorem 4.1 portrait.
type PortraitRow struct {
	Index        int     // eigenvalue index (2 = first non-kernel)
	Lambda       float64 // eigenvalue of the normalized Laplacian
	Misalignment float64 // 1 − ‖proj onto Range(D^{1/2}R)‖²
	Bound        float64 // 3λ(1 + 2/φ³) with the decomposition's measured φ
	Holds        bool
}

// Portrait computes the Theorem 4.1 table for the k smallest non-kernel
// eigenpairs of d's graph against d's cluster space: eigenvalue,
// misalignment with Range(D^{1/2}R), and the paper's bound evaluated at the
// decomposition's measured (exact where possible) closure conductance.
func Portrait(d *decomp.Decomposition, k int, seed int64) ([]PortraitRow, error) {
	g := d.G
	rep, err := decomp.EvaluateCtx(context.TODO(), d, graph.MaxExactConductance)
	if err != nil {
		return nil, err
	}
	vals, vecs, err := Smallest(g, k, 0, seed)
	if err != nil {
		return nil, err
	}
	rows := make([]PortraitRow, len(vals))
	c := 1 + 2/math.Pow(rep.Phi, 3)
	for i := range vals {
		mis := 1 - Alignment(d, vecs[i])
		bound := 3 * vals[i] * c
		rows[i] = PortraitRow{
			Index:        i + 2,
			Lambda:       vals[i],
			Misalignment: mis,
			Bound:        bound,
			Holds:        mis <= bound+1e-9,
		}
	}
	return rows, nil
}
