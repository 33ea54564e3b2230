package rfinfer

import (
	"math"
	"sort"

	"rfidtrack/internal/model"
)

// LocationAt returns the engine's best location estimate for a tag at epoch
// t, using the posterior from the most recent active epoch at or before t.
//
// Objects inherit the posterior of their estimated container (the
// "smoothing over containment" of Section 3); objects with no container
// estimate, and containers themselves, use their own posterior. NoLoc is
// returned when no evidence at or before t exists.
func (e *Engine) LocationAt(id model.TagID, t model.Epoch) model.Loc {
	rec := e.tag(id)
	if rec == nil {
		return model.NoLoc
	}
	if rec.isContainer {
		return rec.post.locateAt(t, e.locWindow())
	}
	if rec.container >= 0 {
		if c := e.tag(rec.container); c != nil {
			if loc := c.post.locateAt(t, e.locWindow()); loc != model.NoLoc {
				return loc
			}
		}
	}
	// Fall back to the object's own readings.
	return e.locFromSeries(rec.series, t)
}

// locFromSeries estimates a location from a tag's own readings alone: the
// maximum-likelihood location of the most recent non-empty mask at or
// before t.
func (e *Engine) locFromSeries(s model.Series, t model.Epoch) model.Loc {
	i := sort.Search(len(s), func(i int) bool { return s[i].T > t })
	if i == 0 {
		return model.NoLoc
	}
	rd := s[i-1]
	best, bestV := model.NoLoc, math.Inf(-1)
	for a := 0; a < e.lik.N(); a++ {
		if v := e.lik.MaskLogLik(rd.T, rd.Mask, model.Loc(a)); v > bestV {
			best, bestV = model.Loc(a), v
		}
	}
	return best
}

// Event is one entry of the inferred object event stream: the schema
// (time, tag id, location, container) that the query processor consumes.
type Event struct {
	T         model.Epoch
	Tag       model.TagID
	Loc       model.Loc
	Container model.TagID
}

// Snapshot emits one event per present object at epoch t. An object is
// present if it, or its estimated container, produced a reading since the
// previous inference run — an object that left the site stops producing
// readings and drops out of the event stream after one interval.
func (e *Engine) Snapshot(t model.Epoch) []Event {
	cutoff := e.prevRun
	if floor := t - e.cfg.RecentHistory; floor > cutoff {
		cutoff = floor
	}
	var out []Event
	for _, oid := range e.objects {
		rec := e.tag(oid)
		last := rec.series.Last()
		if rec.container >= 0 {
			if c := e.tag(rec.container); c != nil {
				if cl := c.series.Last(); cl > last {
					last = cl
				}
			}
		}
		if last < cutoff || last < 0 {
			continue
		}
		out = append(out, Event{
			T:         t,
			Tag:       oid,
			Loc:       e.LocationAt(oid, t),
			Container: rec.container,
		})
	}
	return out
}
