// Package prune implements progressive nearest-candidate search: the
// argmin of an exact Lp distance over N candidates, reading as little of
// the table as can be proved safe.
//
// Sound lower bounds come before cells, in tiers: a one-number bound
// (Source.TotalBound — in the serving layer a tile's signed total) decides
// whether a candidate's row bound is taken at all (Source.LowerBound — its
// row sums, O(Rows) against O(Rows·Cols) cells). The candidate of the
// smallest row bound is refined in full, a candidate whose total or row
// bound exceeds the best completed sum is never read, and the rest are
// refined with the monotone partial-sum cutoff (row power sums are
// non-negative, so a partial sum strictly above the best completed
// distance can never win, even on ties). Results are provably
// byte-identical to the full scan.
//
// The engine is deterministic at any worker count: refinement proceeds
// in fixed-size chunks whose cutoff is the best from PREVIOUS chunks
// only, and chunk results merge serially in index order — so the answer,
// the per-response statistics, and therefore the serialized HTTP
// response bytes never depend on scheduling.
package prune

import "fmt"

// Plan is the validated failure budget δ of a mode=prune query. The
// engine answers every query with the exact nearest, which meets any
// (ε, δ), so a plan changes no answer: it is kept so that callers naming
// a δ keep compiling and keep being refused for one outside (0, 1), and
// it goes with the mode (ROADMAP item 6).
type Plan struct {
	delta float64
}

// NewPlan validates delta, which must lie in (0, 1).
func NewPlan(delta float64) (*Plan, error) {
	if !(delta > 0) || delta >= 1 {
		return nil, fmt.Errorf("prune: delta %v outside (0, 1)", delta)
	}
	return &Plan{delta: delta}, nil
}

// CheckKnobs validates a mode=prune query's knobs: a non-nil plan must
// hold a δ in (0, 1) (a zero Plan does not), and ε must be ≥ 0.
func CheckKnobs(plan *Plan, epsilon float64) error {
	if plan != nil {
		if _, err := NewPlan(plan.delta); err != nil {
			return err
		}
	}
	if !(epsilon >= 0) {
		return fmt.Errorf("prune: epsilon %v must be ≥ 0", epsilon)
	}
	return nil
}
