// Package changepoint implements the containment change-point detection of
// Section 3.3: a generalized likelihood-ratio test over the point evidence
// of co-location, with the detection threshold δ chosen offline by sampling
// hypothetical observation sequences from the generative model.
package changepoint

import (
	"math"
	"math/rand/v2"

	"rfidtrack/internal/model"
)

// Best computes the change-point statistic Δ_o(T) of Eq 6 for one object
// from its per-candidate prefix evidence.
//
// prefix is an oldest-first (n+1)×k row-major table over the n tested
// epochs: prefix[i*k+j] is candidate j's evidence summed over everything
// before the i-th tested epoch, so row 0 holds what precedes the first one
// (collapsed migration weights, evidence before the last change point),
// attributed to the first segment, and row n is the candidate's total. Best
// returns the statistic value, the best split index (a change at the
// split-th tested epoch, with [0,split) explained by one container and
// [split,n) by another), and the best pre-split and post-split candidate
// indexes.
//
// Evidence terms common to every candidate at an epoch cancel: they shift
// both hypotheses alike. Δ is always >= 0: the two-segment hypothesis can
// always reuse the single best container on both sides.
func Best(prefix []float64, k int) (delta float64, split, before, after int) {
	if k == 0 {
		return 0, 0, -1, -1
	}
	n := len(prefix)/k - 1
	totals := prefix[n*k : (n+1)*k]

	// One-segment likelihood: the best single candidate end to end.
	oneSeg := math.Inf(-1)
	for _, t := range totals {
		if t > oneSeg {
			oneSeg = t
		}
	}

	// Two-segment likelihood: scan every split; the best suffix is
	// totals[j] - prefix[j].
	twoSeg := math.Inf(-1)
	bestSplit, bestBefore, bestAfter := 0, -1, -1
	for i := 0; i <= n; i++ {
		row := prefix[i*k : (i+1)*k]
		bp, bpj := math.Inf(-1), -1
		bs, bsj := math.Inf(-1), -1
		for j, p := range row {
			if p > bp {
				bp, bpj = p, j
			}
			if s := totals[j] - p; s > bs {
				bs, bsj = s, j
			}
		}
		if v := bp + bs; v > twoSeg {
			twoSeg, bestSplit, bestBefore, bestAfter = v, i, bpj, bsj
		}
	}
	return twoSeg - oneSeg, bestSplit, bestBefore, bestAfter
}

// ThresholdConfig parameterizes the offline threshold sampler.
type ThresholdConfig struct {
	// Epochs is the length of each hypothetical sequence (use the recent
	// history size H̄ the engine will run with).
	Epochs model.Epoch
	// Decoys is how many non-container candidates each sequence includes.
	Decoys int
	// Samples is how many change-point-free sequences to draw.
	Samples int
	// Seed makes the choice reproducible.
	Seed int64
}

// ChooseThreshold samples hypothetical observation sequences that contain
// no change point from the generative model of Section 3.1 and returns the
// maximum Δ observed, the paper's offline choice of δ. All computation
// happens before any real RFID data is seen.
func ChooseThreshold(lik *model.Likelihood, cfg ThresholdConfig) float64 {
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x6a09e667f3bcc909))
	n := lik.N()
	k := 1 + cfg.Decoys
	maxDelta := 0.0
	for s := 0; s < cfg.Samples; s++ {
		// True container co-located with the object the whole time; decoys
		// wander independently (locations i.i.d. uniform per the model).
		// Row t+1 of the prefix table is row t plus epoch t's evidence; row
		// 0 (no priors) is zero.
		prefix := make([]float64, (int(cfg.Epochs)+1)*k)

		lq := make([]float64, n)
		q := make([]float64, n)
		for t := model.Epoch(0); t < cfg.Epochs; t++ {
			trueLoc := model.Loc(rng.IntN(n))
			omask := sampleMask(rng, lik, t, trueLoc)
			prev, row := prefix[int(t)*k:int(t+1)*k], prefix[int(t+1)*k:int(t+2)*k]
			for j := range row {
				var cloc model.Loc
				if j == 0 {
					cloc = trueLoc
				} else {
					cloc = model.Loc(rng.IntN(n))
				}
				cmask := sampleMask(rng, lik, t, cloc)
				// Posterior from the candidate's own readings; the true
				// container's group additionally includes the object,
				// matching a converged engine.
				base := lik.BaseRow(t)
				gb := 1.0
				if j == 0 {
					gb = 2.0
				}
				for a := 0; a < n; a++ {
					lq[a] = gb * base[a]
				}
				addDeltas(lik, lq, cmask)
				if j == 0 {
					addDeltas(lik, lq, omask)
				}
				normalize(lq, q)
				ev := 0.0
				for a := 0; a < n; a++ {
					ev += q[a] * lik.MaskLogLik(t, omask, model.Loc(a))
				}
				row[j] = prev[j] + ev
			}
		}
		d, _, _, _ := Best(prefix, k)
		if d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}

// sampleMask draws one epoch's readings of a tag at location at: each
// reader scanning at t detects it independently with pi(r, at).
func sampleMask(rng *rand.Rand, lik *model.Likelihood, t model.Epoch, at model.Loc) model.Mask {
	var m model.Mask
	scan := lik.Schedule().ScanMask(t)
	for scan != 0 {
		r := scan.First()
		if rng.Float64() < lik.Rates().Prob(r, at) {
			m = m.Set(r)
		}
		scan &= scan - 1
	}
	return m
}

func addDeltas(lik *model.Likelihood, lq []float64, m model.Mask) {
	n := lik.N()
	for m != 0 {
		r := m.First()
		for a := 0; a < n; a++ {
			lq[a] += lik.Delta(r, model.Loc(a))
		}
		m &= m - 1
	}
}

func normalize(lq, q []float64) {
	maxv := math.Inf(-1)
	for _, v := range lq {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for a, v := range lq {
		q[a] = math.Exp(v - maxv)
		sum += q[a]
	}
	for a := range q {
		q[a] /= sum
	}
}
