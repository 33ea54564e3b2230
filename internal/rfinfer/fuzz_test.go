package rfinfer

import (
	"math"
	"testing"

	"rfidtrack/internal/model"
)

// fuzzSeedStates exports real collapsed and CR state from a small engine,
// seeding the corpus with structurally valid migration payloads.
func fuzzSeedStates(f *testing.F) (collapsed, cr []byte) {
	f.Helper()
	rates, err := model.UniformReadRates(4, 0.8, 0.2, 1e-6, nil)
	if err != nil {
		f.Fatal(err)
	}
	lik := model.NewLikelihood(rates, model.AlwaysOn(4))
	eng := New(lik, DefaultConfig())
	eng.RegisterObject(0)
	eng.RegisterContainer(1)
	eng.RegisterContainer(2)
	for t := model.Epoch(0); t < 60; t += 2 {
		for _, id := range []model.TagID{0, 1, 2} {
			if err := eng.Observe(t, id, model.Loc(int(t/20))); err != nil {
				f.Fatal(err)
			}
		}
	}
	eng.Run(59)

	col, err := eng.ExportCollapsed(0)
	if err != nil {
		f.Fatal(err)
	}
	crSt, err := eng.ExportCR(0)
	if err != nil {
		f.Fatal(err)
	}
	return AppendCollapsed(nil, col), AppendCR(nil, crSt)
}

// FuzzDecodeCR hardens the migrated-state decoders: a receiving site must
// never panic on a corrupt, truncated, or hostile migration payload —
// decoding either succeeds or returns an error.
func FuzzDecodeCR(f *testing.F) {
	collapsed, cr := fuzzSeedStates(f)
	f.Add(cr)
	f.Add(cr[:len(cr)/2])
	f.Add(collapsed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Payloads naming tag ids no deployment registers — the top of the id
	// range, a negative one, one just past the seed world's three tags — as
	// the object, a candidate and a container history's key.
	for _, ids := range [][2]model.TagID{{math.MaxInt32, -7}, {-7, 3 + 10}} {
		st, err := DecodeCR(model.NewReader(cr))
		if err != nil {
			f.Fatal(err)
		}
		st.Collapsed.Object = ids[0]
		st.Collapsed.Candidates = append(st.Collapsed.Candidates, ids[1])
		st.Collapsed.Weights = append(st.Collapsed.Weights, st.Collapsed.DefaultWeight)
		st.ContHist[ids[1]] = st.ObjectHist
		f.Add(AppendCR(nil, st))
	}

	rates, err := model.UniformReadRates(4, 0.8, 0.2, 1e-6, nil)
	if err != nil {
		f.Fatal(err)
	}
	lik := model.NewLikelihood(rates, model.AlwaysOn(4))

	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := DecodeCR(model.NewReader(data)); err == nil {
			// Whatever decoded must survive re-encoding (the state could be
			// forwarded to yet another site) ...
			AppendCR(nil, st)
			// ... and, crucially, a receiving site must be able to import it
			// and keep running: masks referencing readers the site does not
			// have, absurd epochs, etc. must be sanitized, not crash Run.
			eng := New(lik, DefaultConfig())
			eng.RegisterObject(1)
			if err := eng.Observe(5, 1, 0); err != nil {
				t.Fatal(err)
			}
			eng.ImportCR(st)
			if bound := tagTableBound(eng); len(eng.tags) > bound {
				t.Fatalf("tag table grew to %d slots (bound %d)", len(eng.tags), bound)
			}
			eng.Run(60)
		}
		if st, err := DecodeCollapsed(model.NewReader(data)); err == nil {
			AppendCollapsed(nil, st)
		}
	})
}
