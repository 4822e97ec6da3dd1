package portfolio

import (
	"rdlroute/internal/pool"
)

// Outcome is one full route attempt's canonical score, as reported by the
// racer's attempt callback. Strategy is the strategy name; OK is false when
// the attempt errored (an errored attempt loses to any completed one, and
// ties among errored attempts resolve by name).
type Outcome struct {
	Strategy    string
	OK          bool
	Routability float64
	Wirelength  float64
	Vias        int
	Err         error
}

// Better reports whether a beats b under the canonical portfolio objective:
// completed beats errored, then higher routability, then lower wirelength,
// then fewer vias, then the lexically smaller strategy name. Both operands
// are deterministic attempt results, so the comparison — and therefore the
// winner — is a pure function of the strategy set, independent of worker
// count or completion order.
func Better(a, b Outcome) bool {
	if a.OK != b.OK {
		return a.OK
	}
	if a.Routability != b.Routability {
		return a.Routability > b.Routability
	}
	if a.Wirelength != b.Wirelength {
		return a.Wirelength < b.Wirelength
	}
	if a.Vias != b.Vias {
		return a.Vias < b.Vias
	}
	return a.Strategy < b.Strategy
}

// Race runs one full route attempt per strategy, fanned over the shared
// deterministic pool, and returns the canonical winner's index plus every
// outcome (indexed like strategies). parallelism is the caller's total
// worker budget: the racer runs min(K, budget) attempts concurrently and
// hands each attempt an inner budget of max(1, budget/K) workers for its
// own pipeline stages. Since every pipeline stage is byte-identical at any
// worker count, the split only shapes wall-clock — outcomes, and therefore
// the winner, do not depend on it.
//
// attempt receives the slot index (for per-attempt scratch or recorders),
// the strategy, and the inner worker budget, and must return the attempt's
// canonical score. It is called exactly once per strategy.
func Race(strategies []Strategy, parallelism int, attempt func(slot int, s Strategy, workers int) Outcome) (winner int, outs []Outcome) {
	k := len(strategies)
	if k == 0 {
		return -1, nil
	}
	budget := pool.Default(parallelism)
	inner := budget / k
	if inner < 1 {
		inner = 1
	}
	units := make([]func(int) Outcome, k)
	for i := range strategies {
		i, s := i, strategies[i]
		units[i] = func(int) Outcome {
			out := attempt(i, s, inner)
			out.Strategy = s.Name()
			return out
		}
	}
	racers := budget
	if racers > k {
		racers = k
	}
	outs = pool.Run(units, racers)
	winner = 0
	for i := 1; i < k; i++ {
		if Better(outs[i], outs[winner]) {
			winner = i
		}
	}
	return winner, outs
}
