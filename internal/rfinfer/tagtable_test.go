package rfinfer

import (
	"fmt"
	"math"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
)

// tagTableBound is the most slots the dense tag table may hold.
func tagTableBound(e *Engine) int {
	return max(2*(len(e.objects)+len(e.containers)), 1024)
}

// TestTagTableForeignIDs imports migrated state and snapshots that name tag
// ids no deployment registers — the top of the id range, a negative id, and
// one just past the world's tags — through every import path. None may
// panic or size the dense table past max(2 × registered, 1024) slots; the
// engine must keep running, the foreign ids must resolve, and ids nobody
// registered must still look up as absent.
func TestTagTableForeignIDs(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Epochs = 900
	cfg.ItemsPerCase = 3
	feed := newSimFeed(t, cfg)
	numTags := model.TagID(len(feed.tr.Tags))

	src := feed.engine(DefaultConfig())
	feed.through(t, 300, src)
	src.Run(299)
	obj, cont := src.objects[0], src.containers[0]
	crState, err := src.ExportCR(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(crState.ContHist) == 0 {
		t.Fatal("the exported CR state carries no container history")
	}
	snap := src.ExportState()
	var hist model.Series
	for _, h := range crState.ContHist {
		hist = h
		break
	}

	for _, foreign := range []model.TagID{math.MaxInt32, -7, numTags + 10} {
		imports := map[string]func(e *Engine) error{
			// An object with that id, and a known object whose estimate and
			// candidate list name it as a container.
			"collapsed": func(e *Engine) error {
				e.ImportCollapsed(CollapsedState{Object: foreign, Container: cont,
					Candidates: []model.TagID{cont}, Weights: []float64{0}})
				e.ImportCollapsed(CollapsedState{Object: obj, Container: foreign,
					Candidates: []model.TagID{cont, foreign}, Weights: []float64{0, -2}, DefaultWeight: -5})
				return nil
			},
			// CR state whose container history is filed under that id.
			"cr": func(e *Engine) error {
				st := crState
				st.Collapsed.Candidates = append(append([]model.TagID(nil), st.Collapsed.Candidates...), foreign)
				st.Collapsed.Weights = append(append([]float64(nil), st.Collapsed.Weights...), st.Collapsed.DefaultWeight)
				st.ContHist = map[model.TagID]model.Series{foreign: hist}
				e.ImportCR(st)
				return nil
			},
			// A snapshot holding a container with that id.
			"state/container": func(e *Engine) error {
				st := snap
				st.Containers = append(append([]ContainerState(nil), st.Containers...),
					ContainerState{ID: foreign, Series: hist, Post: PosteriorState{N: 0}})
				return e.ImportState(st)
			},
			// A snapshot holding an object with that id.
			"state/object": func(e *Engine) error {
				st := snap
				st.Objects = append(append([]ObjectState(nil), st.Objects...),
					ObjectState{Collapsed: CollapsedState{Object: foreign, Container: -1,
						Candidates: []model.TagID{cont}, Weights: []float64{0}}})
				return e.ImportState(st)
			},
		}
		for name, imp := range imports {
			t.Run(fmt.Sprintf("%s/id=%d", name, foreign), func(t *testing.T) {
				e := feed.engine(DefaultConfig())
				feed.rewind()
				feed.through(t, 300, e)
				e.Run(299)
				if err := imp(e); err != nil {
					t.Fatal(err)
				}
				if bound := tagTableBound(e); len(e.tags) > bound {
					t.Fatalf("table holds %d slots for %d registered tags (bound %d)",
						len(e.tags), len(e.objects)+len(e.containers), bound)
				}
				if e.tag(foreign) == nil {
					t.Fatalf("imported id %d does not resolve", foreign)
				}
				feed.through(t, 600, e)
				e.Run(599)
				e.Container(foreign)
				e.LocationAt(foreign, 599)
				e.Snapshot(599)
				for _, absent := range []model.TagID{foreign - 1, numTags + 9, -1, -8, math.MinInt32, math.MaxInt32 - 1} {
					if absent == foreign {
						continue
					}
					if rec := e.tag(absent); rec != nil {
						t.Fatalf("unregistered id %d looks up as tag %d", absent, rec.id)
					}
					if err := e.Observe(599, absent, 0); err == nil {
						t.Fatalf("a reading for unregistered id %d was accepted", absent)
					}
				}
			})
		}
	}
}
