package changepoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rfidtrack/internal/model"
)

// prefixOf lays out a per-candidate point-evidence matrix as Best's prefix
// table: row 0 the priors, row i+1 row i plus epoch i's evidence.
func prefixOf(evid [][]float64, priors []float64) ([]float64, int) {
	k := len(evid)
	if k == 0 {
		return nil, 0
	}
	n := len(evid[0])
	prefix := make([]float64, (n+1)*k)
	copy(prefix, priors)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			prefix[(i+1)*k+j] = prefix[i*k+j] + evid[j][i]
		}
	}
	return prefix, k
}

// best is Best over a point-evidence matrix.
func best(evid [][]float64, priors []float64) (delta float64, split, before, after int) {
	return Best(prefixOf(evid, priors))
}

func TestBestNoCandidates(t *testing.T) {
	d, _, before, after := Best(nil, 0)
	if d != 0 || before != -1 || after != -1 {
		t.Fatalf("empty input: %v %v %v", d, before, after)
	}
}

func TestBestObviousChange(t *testing.T) {
	// Candidate 0 explains the first half, candidate 1 the second half.
	evid := [][]float64{
		{0, 0, 0, -10, -10, -10},
		{-10, -10, -10, 0, 0, 0},
	}
	priors := []float64{0, 0}
	d, split, before, after := best(evid, priors)
	if split != 3 || before != 0 || after != 1 {
		t.Fatalf("split=%d before=%d after=%d", split, before, after)
	}
	// One segment: best single = -30; two segments: 0. Delta = 30.
	if math.Abs(d-30) > 1e-9 {
		t.Fatalf("delta = %v, want 30", d)
	}
}

func TestBestNoChange(t *testing.T) {
	// Candidate 0 dominates throughout: delta must be ~0.
	evid := [][]float64{
		{0, 0, 0, 0},
		{-5, -5, -5, -5},
	}
	d, _, _, after := best(evid, []float64{0, 0})
	if d > 1e-9 {
		t.Fatalf("delta = %v for stable data", d)
	}
	if after != 0 {
		t.Fatalf("after = %d", after)
	}
}

func TestBestPriorsShiftSegmentOne(t *testing.T) {
	// Without priors candidate 1 wins both segments; a strong prior for
	// candidate 0 makes the pre-split segment prefer candidate 0.
	evid := [][]float64{
		{-1, -1, -1, -1},
		{0, 0, 0, 0},
	}
	d, _, before, _ := best(evid, []float64{10, 0})
	if before != 0 {
		t.Fatalf("before = %d, want 0 (prior should dominate)", before)
	}
	if d < 0 {
		t.Fatalf("delta negative: %v", d)
	}
}

// TestBestNonNegativeProperty: Δ >= 0 always (the two-segment hypothesis
// can reuse the single best container on both sides).
func TestBestNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		n := rng.Intn(30)
		evid := make([][]float64, k)
		for j := range evid {
			evid[j] = make([]float64, n)
			for i := range evid[j] {
				evid[j][i] = rng.NormFloat64() * 10
			}
		}
		priors := make([]float64, k)
		for j := range priors {
			priors[j] = rng.NormFloat64() * 5
		}
		d, split, _, _ := best(evid, priors)
		if d < -1e-9 {
			return false
		}
		return split >= 0 && split <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBestMatchesBruteForce compares the incremental scan against a
// brute-force evaluation of every split and candidate pair.
func TestBestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		n := 1 + rng.Intn(12)
		evid := make([][]float64, k)
		for j := range evid {
			evid[j] = make([]float64, n)
			for i := range evid[j] {
				evid[j][i] = math.Round(rng.NormFloat64() * 4)
			}
		}
		priors := make([]float64, k)

		got, _, _, _ := best(evid, priors)

		oneSeg := math.Inf(-1)
		for j := 0; j < k; j++ {
			s := priors[j]
			for i := 0; i < n; i++ {
				s += evid[j][i]
			}
			if s > oneSeg {
				oneSeg = s
			}
		}
		twoSeg := math.Inf(-1)
		for split := 0; split <= n; split++ {
			for j1 := 0; j1 < k; j1++ {
				for j2 := 0; j2 < k; j2++ {
					s := priors[j1]
					for i := 0; i < split; i++ {
						s += evid[j1][i]
					}
					for i := split; i < n; i++ {
						s += evid[j2][i]
					}
					if s > twoSeg {
						twoSeg = s
					}
				}
			}
		}
		want := twoSeg - oneSeg
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChooseThresholdDeterministic(t *testing.T) {
	rates, err := model.UniformReadRates(4, 0.8, 0.3, 0, func(r, a int) bool {
		return r-a == 1 || a-r == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	lik := model.NewLikelihood(rates, model.AlwaysOn(4))
	cfg := ThresholdConfig{Epochs: 100, Decoys: 3, Samples: 10, Seed: 42}
	d1 := ChooseThreshold(lik, cfg)
	d2 := ChooseThreshold(lik, cfg)
	if d1 != d2 {
		t.Fatalf("not deterministic: %v vs %v", d1, d2)
	}
	// The value ChooseThreshold returned while Best still read a
	// per-candidate point-evidence matrix: the prefix table's running sums
	// are taken in that Best's order, so not one bit may move.
	if want := math.Float64frombits(0x3fe65da185f3f500); math.Float64bits(d1) != math.Float64bits(want) {
		t.Fatalf("threshold %v (%#x), want %v (%#x)", d1, math.Float64bits(d1), want, math.Float64bits(want))
	}
	if d1 < 0 {
		t.Fatalf("negative threshold %v", d1)
	}
}
