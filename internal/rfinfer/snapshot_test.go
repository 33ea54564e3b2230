package rfinfer

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"rfidtrack/internal/model"
)

// snapshotWorkload materializes the feedChangeWorkload reading stream as a
// replayable list, so the same bytes can feed an uninterrupted engine and a
// crash/restore pair.
type snapReading struct {
	t    model.Epoch
	id   model.TagID
	mask model.Mask
}

func snapshotWorkload(lik *model.Likelihood, seed uint64) []snapReading {
	rng := rand.New(rand.NewPCG(seed, 17))
	var out []snapReading
	observe := func(ep model.Epoch, id model.TagID, at model.Loc) {
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
			out = append(out, snapReading{t: ep, id: id, mask: m})
		}
	}
	for ep := model.Epoch(0); ep < 500; ep++ {
		observe(ep, 100, 2)
		observe(ep, 101, 3)
		for o := model.TagID(0); o < 3; o++ {
			observe(ep, o, 2)
		}
		for o := model.TagID(6); o < 12; o++ {
			observe(ep, o, 3)
		}
		for o := model.TagID(3); o < 6; o++ {
			at := model.Loc(2)
			if ep >= 250 {
				at = 3
			}
			observe(ep, o, at)
		}
	}
	return out
}

// newSnapshotEngine registers the workload's tags on a fresh engine.
func newSnapshotEngine(lik *model.Likelihood) *Engine {
	e := New(lik, changeConfig())
	e.RegisterContainer(100)
	e.RegisterContainer(101)
	for o := model.TagID(0); o < 12; o++ {
		e.RegisterObject(o)
	}
	return e
}

// feedSnapshotRange replays readings with t in [from, to) into the engine,
// running inference at every 100-epoch boundary.
func feedSnapshotRange(t *testing.T, e *Engine, readings []snapReading, from, to model.Epoch) {
	t.Helper()
	const interval = 100
	for ep := from; ep < to; ep++ {
		for _, rd := range readings {
			if rd.t == ep {
				if err := e.ObserveMask(rd.t, rd.id, rd.mask); err != nil {
					t.Fatal(err)
				}
			}
		}
		if (ep+1)%interval == 0 {
			e.Run(ep)
		}
	}
}

// TestSnapshotRestoreContinuesIdentically is the engine-level durability
// contract: export the full state at a run boundary, round-trip it through
// the wire codec into a fresh engine, continue both engines on the same
// stream, and every inference output — and the re-exported state itself —
// must be bit-identical. This is what makes WAL-tail replay after a
// snapshot restore exact in the online runtime.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	lik := testLik(t)
	readings := snapshotWorkload(lik, 7)
	const cut = model.Epoch(300) // boundary after the epoch-250 change lands

	uninterrupted := newSnapshotEngine(lik)
	feedSnapshotRange(t, uninterrupted, readings, 0, 500)
	if len(uninterrupted.Detections()) == 0 {
		t.Fatal("workload produced no detections; test is vacuous")
	}

	crashed := newSnapshotEngine(lik)
	feedSnapshotRange(t, crashed, readings, 0, cut)
	var buf bytes.Buffer
	if err := EncodeEngineState(&buf, crashed.ExportState()); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeEngineState(model.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, crashed.ExportState()) {
		t.Fatal("engine state did not survive the wire codec bit-exactly")
	}

	restored := newSnapshotEngine(lik)
	if err := restored.ImportState(decoded); err != nil {
		t.Fatal(err)
	}
	feedSnapshotRange(t, restored, readings, cut, 500)

	if got, want := fingerprint(restored), fingerprint(uninterrupted); !reflect.DeepEqual(got, want) {
		t.Errorf("restored engine diverged from uninterrupted run:\n got: %+v\nwant: %+v", got, want)
	}
	if got, want := restored.ExportState(), uninterrupted.ExportState(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored engine's final state diverged:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestSnapshotKindMismatch pins the layout guard: importing a snapshot that
// disagrees with the engine's registered tag kinds fails instead of
// corrupting the tag table.
func TestSnapshotKindMismatch(t *testing.T) {
	lik := testLik(t)
	src := newSnapshotEngine(lik)
	st := src.ExportState()

	swapped := New(lik, changeConfig())
	swapped.RegisterContainer(0) // object 0 in the snapshot
	if err := swapped.ImportState(st); err == nil {
		t.Error("importing an object over a container registration succeeded")
	}
	swapped2 := New(lik, changeConfig())
	swapped2.RegisterObject(100) // container 100 in the snapshot
	if err := swapped2.ImportState(st); err == nil {
		t.Error("importing a container over an object registration succeeded")
	}
}
