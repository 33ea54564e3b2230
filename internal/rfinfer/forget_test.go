package rfinfer

import (
	"reflect"
	"testing"

	"rfidtrack/internal/model"
)

// TestForgetMatchesFresh pins Engine.Forget at the record and through the
// memos. Forgetting leaves the record exactly as a fresh registration
// leaves it, holding no storage; and an engine that forgets an object
// mid-stream stays bit-identical to the noCarry reference (every memo off)
// that forgets it at the same point — the group change and the changed
// protected windows are all the E-step memo and the truncation skip need
// to see.
func TestForgetMatchesFresh(t *testing.T) {
	lik := testLik(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"default-cr", DefaultConfig()}, {"detect", changeConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			inc, ref := New(lik, tc.cfg), New(lik, tc.cfg)
			ref.noCarry = true
			engines := []*Engine{inc, ref}
			// Containers 100 and 101 sit at locations 0 and 1 with three
			// objects each; object 1 leaves after the third checkpoint.
			const gone = model.TagID(1)
			home := map[model.TagID]model.Loc{100: 0, 101: 1}
			for o := model.TagID(0); o < 6; o++ {
				home[o] = model.Loc(o / 3)
			}
			for _, e := range engines {
				e.RegisterContainer(100)
				e.RegisterContainer(101)
				for o := model.TagID(0); o < 6; o++ {
					e.RegisterObject(o)
				}
			}
			const interval = 100
			for ck := 0; ck < 8; ck++ {
				for ep := model.Epoch(ck * interval); ep < model.Epoch((ck+1)*interval); ep++ {
					for id, loc := range home {
						if id == gone && ck >= 3 {
							continue
						}
						if m := lik.Schedule().ScanMask(ep) & model.Mask(1<<loc); m != 0 {
							for _, e := range engines {
								if err := e.ObserveMask(ep, id, m); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
				}
				if ck == 3 {
					if inc.Container(gone) != 100 {
						t.Fatalf("object %d is in container %d before it leaves, want 100", gone, inc.Container(gone))
					}
					for _, e := range engines {
						e.Forget(gone)
					}
					fresh := New(lik, tc.cfg)
					fresh.RegisterObject(gone)
					got, want := *inc.tag(gone), *fresh.tag(gone)
					got.dirty = false
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("forgotten record %+v, want a fresh registration's %+v", got, want)
					}
					var held storageSum
					held.addTag(inc.tag(gone))
					if held != (storageSum{}) {
						t.Fatalf("forgotten record still holds %+v bytes", held)
					}
				}
				now := model.Epoch((ck+1)*interval - 1)
				if ri, rr := inc.Run(now), ref.Run(now); !reflect.DeepEqual(ri, rr) {
					t.Fatalf("checkpoint %d: RunResult diverged:\ninc: %+v\nref: %+v", ck, ri, rr)
				}
				compareEngines(t, ck, inc, ref, now)
			}
			if c := inc.Container(gone); c != -1 {
				t.Errorf("forgotten object %d has container %d after later Runs, want -1", gone, c)
			}
			if from, to := inc.CriticalRegion(gone); from < to {
				t.Errorf("forgotten object %d has critical region [%d,%d) after later Runs", gone, from, to)
			}
		})
	}
}
