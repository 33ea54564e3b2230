package rfinfer

import (
	"math/rand/v2"
	"testing"

	"rfidtrack/internal/model"
)

// genReading is one pre-generated observation, so the identical stream can
// be replayed into engines with different configurations.
type genReading struct {
	t    model.Epoch
	id   model.TagID
	mask model.Mask
}

// genWorkload synthesizes a randomized multi-container scene: two real
// containers at different locations, objects split between them, one
// object that jumps containers mid-stream (exercising the change-point and
// critical-region machinery), and dropout-noisy readings throughout.
func genWorkload(t *testing.T, lik *model.Likelihood, seed uint64, epochs model.Epoch) (objs, conts []model.TagID, readings []genReading) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	conts = []model.TagID{100, 101}
	locOf := map[model.TagID]model.Loc{100: 2, 101: 3}
	objs = []model.TagID{0, 1, 2, 3}
	home := map[model.TagID]model.TagID{0: 100, 1: 100, 2: 101, 3: 100}

	emit := func(ep model.Epoch, id model.TagID, at model.Loc) {
		var m model.Mask
		scan := lik.Schedule().ScanMask(ep)
		for scan != 0 {
			r := scan.First()
			if rng.Float64() < lik.Rates().Prob(r, at) {
				m = m.Set(r)
			}
			scan &= scan - 1
		}
		if m != 0 {
			readings = append(readings, genReading{ep, id, m})
		}
	}
	for ep := model.Epoch(0); ep < epochs; ep++ {
		for _, c := range conts {
			emit(ep, c, locOf[c])
		}
		for _, o := range objs {
			c := home[o]
			if o == 3 && ep >= epochs/2 {
				c = 101 // object 3 jumps containers halfway
			}
			if rng.Float64() < 0.9 { // dropout noise
				emit(ep, o, locOf[c])
			}
		}
	}
	return objs, conts, readings
}

// feedEngine registers the scene and replays a slice of the pre-generated
// stream.
func feedEngine(t *testing.T, e *Engine, objs, conts []model.TagID, readings []genReading) {
	t.Helper()
	for _, c := range conts {
		e.RegisterContainer(c)
	}
	for _, o := range objs {
		e.RegisterObject(o)
	}
	for _, rd := range readings {
		if err := e.ObserveMask(rd.t, rd.id, rd.mask); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrefAdvExact pins the prefix-sum machinery the critical-region search
// and change-point detection lean on: for every container posterior,
// prefAdv must be the exact running sum of qBase minus the uniform base over
// the active epochs, and advSum its final entry — recomputed here directly
// from the rows.
func TestPrefAdvExact(t *testing.T) {
	lik := testLik(t)
	objs, conts, readings := genWorkload(t, lik, 7, 240)
	e := New(lik, DefaultConfig())
	feedEngine(t, e, objs, conts, readings)
	e.Run(239)

	checked := 0
	for _, c := range conts {
		rec := e.tags[c]
		p := &rec.post
		if len(p.epochs) == 0 {
			continue
		}
		checked++
		if len(p.prefAdv) != len(p.epochs)+1 || p.prefAdv[0] != 0 {
			t.Fatalf("container %d: prefAdv len %d for %d epochs, first %g",
				c, len(p.prefAdv), len(p.epochs), p.prefAdv[0])
		}
		sum := 0.0
		for i, ep := range p.epochs {
			adv := p.qBase[i] - lik.UniformBase(ep)
			sum += adv
			if got := p.prefAdv[i+1]; got != sum {
				t.Fatalf("container %d: prefAdv[%d] = %g, want running sum %g", c, i+1, got, sum)
			}
		}
		if p.advSum != p.prefAdv[len(p.epochs)] {
			t.Errorf("container %d: advSum %g != prefAdv tail %g", c, p.advSum, p.prefAdv[len(p.epochs)])
		}
	}
	if checked == 0 {
		t.Fatal("no container accumulated posterior epochs; the scenario is vacuous")
	}
}
