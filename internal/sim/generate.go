package sim

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"rfidtrack/internal/model"
	"rfidtrack/internal/trace"
)

// Generate runs the supply-chain simulation and returns the per-site traces
// with ground truth. Generation is deterministic for a given Config.
func Generate(cfg Config) (*World, error) { return generate(cfg, true) }

// Layout returns the deployment Generate(cfg) describes — tags, kinds, read
// rates, schedule, visits and ground truth — without simulating a single
// reading: every tag's Readings is empty, everything else is identical. It
// is what a consumer that receives its readings from elsewhere (the daemon,
// fed by its readers and its write-ahead log, on every start but -demo)
// needs of the world, at a few percent of Generate's cost.
func Layout(cfg Config) (*World, error) { return generate(cfg, false) }

// generate is the one generator behind Generate and Layout. Drawing the
// readings is the last consumer of the generator's random stream, so leaving
// it out changes nothing that comes before it.
func generate(cfg Config, readings bool) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &generator{cfg: cfg, rng: newRand(cfg.Seed)}
	g.buildRates()
	g.buildSchedules()
	g.injectAnomalies()
	g.buildItemStays()
	if readings {
		g.generateReadings()
	}
	return g.assemble()
}

// assign records that an item's container is c starting at epoch t.
type assign struct {
	t model.Epoch
	c model.TagID
}

// shelfStay indexes a case's shelf residence for anomaly selection.
type shelfStay struct {
	site     int
	caseID   model.TagID
	from, to model.Epoch
}

type generator struct {
	cfg Config
	rng *rand.Rand

	scanRate [][]float64 // [site][loc] per-scan probability of reading a co-located tag
	ovlRate  [][]float64 // [site][loc] per-scan probability of reading a tag at an adjacent shelf
	rates    []*model.ReadRates
	sched    *model.Schedule

	tags    []tagState
	assigns [][]assign // [tag id] an item's containment assignment history; empty for pallets and cases
	shelved []shelfStay
	changes []ContChange
}

// buildRates samples per-reader per-scan rates and builds the model's
// read-rate table pi(r, a) and the reader schedule.
func (g *generator) buildRates() {
	cfg := &g.cfg
	n := cfg.numLocs()
	g.scanRate = make([][]float64, cfg.Warehouses)
	g.ovlRate = make([][]float64, cfg.Warehouses)
	g.rates = make([]*model.ReadRates, cfg.Warehouses)
	g.sched = g.buildSchedule()
	for s := 0; s < cfg.Warehouses; s++ {
		scan := make([]float64, n)
		ovl := make([]float64, n)
		for r := 0; r < n; r++ {
			if cfg.RRUniform {
				scan[r] = 0.6 + 0.4*g.rng.Float64()
			} else {
				scan[r] = cfg.RR
			}
			if cfg.ORUniform {
				ovl[r] = 0.2 + 0.6*g.rng.Float64()
			} else {
				ovl[r] = cfg.OR
			}
		}
		g.scanRate[s] = scan
		g.ovlRate[s] = ovl

		pi := make([][]float64, n)
		for r := 0; r < n; r++ {
			pi[r] = make([]float64, n)
			for a := 0; a < n; a++ {
				switch {
				case r == a:
					pi[r][a] = scan[r]
				case g.adjacentShelves(model.Loc(r), model.Loc(a)):
					pi[r][a] = ovl[r]
				default:
					pi[r][a] = 0 // clamped to the floor by model.NewReadRates
				}
			}
		}
		rates, err := model.NewReadRates(pi)
		if err != nil {
			panic(fmt.Sprintf("sim: internal rate table error: %v", err))
		}
		g.rates[s] = rates
	}
}

// buildSchedule derives the reader interrogation schedule from the config:
// non-shelf readers scan every NonShelfPeriod epochs, shelf readers every
// ShelfPeriod epochs (phase-shifted by location), and mobile shelves scan
// only while the sweeping reader services them.
func (g *generator) buildSchedule() *model.Schedule {
	cfg := &g.cfg
	cycle := lcm(cfg.NonShelfPeriod, cfg.ShelfPeriod)
	if cfg.MobileShelves {
		cycle = lcm(cfg.NonShelfPeriod, cfg.Shelves*cfg.MobileDwell)
	}
	sched, err := model.NewSchedule(cycle, cfg.numLocs(), func(r, p int) bool {
		loc := model.Loc(r)
		if !g.isShelf(loc) {
			return p%cfg.NonShelfPeriod == r%cfg.NonShelfPeriod
		}
		if cfg.MobileShelves {
			sweep := cfg.Shelves * cfg.MobileDwell
			off := (r - 2) * cfg.MobileDwell
			pp := p % sweep
			return pp >= off && pp < off+cfg.MobileDwell
		}
		return p%cfg.ShelfPeriod == r%cfg.ShelfPeriod
	})
	if err != nil {
		panic(fmt.Sprintf("sim: internal schedule error: %v", err))
	}
	return sched
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

func (g *generator) isShelf(loc model.Loc) bool {
	return loc >= 2 && int(loc) < 2+g.cfg.Shelves
}

func (g *generator) adjacentShelves(r, a model.Loc) bool {
	if !g.isShelf(r) || !g.isShelf(a) {
		return false
	}
	d := int(r) - int(a)
	return d == 1 || d == -1
}

// buildSchedules creates all tags and the stay timelines for pallets and
// cases (items are derived afterwards, once anomalies are known).
func (g *generator) buildSchedules() {
	cfg := &g.cfg
	numPallets := int(cfg.Epochs)/cfg.InjectEvery + 1
	perPallet := 1 + cfg.CasesPerPallet*(1+cfg.ItemsPerCase)
	g.tags = make([]tagState, 0, numPallets*perPallet)
	g.assigns = make([][]assign, numPallets*perPallet)
	// Every item starts with one assignment; they share one array, each
	// capped at its own element, so an anomaly's append moves only its item.
	first := make([]assign, numPallets*cfg.CasesPerPallet*cfg.ItemsPerCase)

	for k := 0; k < numPallets; k++ {
		t0 := model.Epoch(k * cfg.InjectEvery)
		if t0 >= cfg.Epochs {
			break
		}
		route := g.route(k)

		palletID := g.newTag(model.KindPallet, fmt.Sprintf("p%d", k))
		caseIDs := make([]model.TagID, cfg.CasesPerPallet)
		for i := range caseIDs {
			caseIDs[i] = g.newTag(model.KindCase, fmt.Sprintf("p%dc%d", k, i))
			g.tags[caseIDs[i]].cont = []trace.ContSpan{{From: t0, To: cfg.Epochs, Container: palletID}}
		}
		for i, caseID := range caseIDs {
			for j := 0; j < cfg.ItemsPerCase; j++ {
				itemID := g.newTag(model.KindItem, fmt.Sprintf("p%dc%di%d", k, i, j))
				first[0] = assign{t: t0, c: caseID}
				g.assigns[itemID], first = first[:1:1], first[1:]
			}
		}

		arrive := t0
		for leg, site := range route {
			if arrive >= cfg.Epochs {
				break
			}
			withBelt := leg == 0 || cfg.BeltEverywhere
			g.scheduleVisit(site, arrive, palletID, caseIDs, withBelt)
			arrive += model.Epoch(cfg.siteDwell() + cfg.TransitTime)
		}
	}
}

// route returns the warehouse sequence for pallet k: the source warehouse
// followed by round-robin successors (a single-source DAG as in C.1).
func (g *generator) route(k int) []int {
	cfg := &g.cfg
	route := make([]int, 0, cfg.PathLength)
	route = append(route, 0)
	for j := 1; j < cfg.PathLength; j++ {
		next := 1 + (k+j-1)%(cfg.Warehouses-1)
		route = append(route, next)
	}
	return route
}

func (g *generator) newTag(kind model.TagKind, name string) model.TagID {
	id := model.TagID(len(g.tags))
	g.tags = append(g.tags, tagState{kind: kind, name: name})
	return id
}

// scheduleVisit lays out one pallet-load's passage through one warehouse:
// entry door -> belt (one case at a time, at belt-equipped warehouses) ->
// shelf -> exit door.
func (g *generator) scheduleVisit(site int, arrive model.Epoch, palletID model.TagID, caseIDs []model.TagID, withBelt bool) {
	cfg := &g.cfg
	depart := arrive + model.Epoch(cfg.siteDwell())
	exitStart := depart - model.Epoch(cfg.ExitDwell)

	// The pallet tag is read at the entry door, then waits in the packing
	// area by the exit door until dispatch.
	g.addStay(palletID, site, arrive, arrive+model.Epoch(cfg.EntryDwell), cfg.entryLoc())
	g.addStay(palletID, site, arrive+model.Epoch(cfg.EntryDwell), depart, cfg.exitLoc())

	for i, caseID := range caseIDs {
		shelf := cfg.shelfLoc(g.rng.IntN(cfg.Shelves))
		shelfFrom := arrive + model.Epoch(cfg.EntryDwell)
		if withBelt {
			beltFrom := arrive + model.Epoch(cfg.EntryDwell+i*cfg.BeltDwell)
			beltTo := beltFrom + model.Epoch(cfg.BeltDwell)
			g.addStay(caseID, site, arrive, beltFrom, cfg.entryLoc())
			g.addStay(caseID, site, beltFrom, beltTo, cfg.beltLoc())
			shelfFrom = beltTo
		} else {
			g.addStay(caseID, site, arrive, shelfFrom, cfg.entryLoc())
		}
		g.addStay(caseID, site, shelfFrom, exitStart, shelf)
		g.addStay(caseID, site, exitStart, depart, cfg.exitLoc())

		if shelfFrom < exitStart {
			g.shelved = append(g.shelved, shelfStay{site: site, caseID: caseID, from: shelfFrom, to: exitStart})
		}
	}
}

// addStay appends a clipped stay to a tag's timeline.
func (g *generator) addStay(id model.TagID, site int, from, to model.Epoch, loc model.Loc) {
	if to > g.cfg.Epochs {
		to = g.cfg.Epochs
	}
	if from >= to {
		return
	}
	g.tags[id].stays = append(g.tags[id].stays, stay{site: site, from: from, to: to, loc: loc})
}

// injectAnomalies moves a random shelved item to a different shelved case
// (or removes it) every AnomalyEvery epochs, updating assignment histories
// and the global change log.
func (g *generator) injectAnomalies() {
	cfg := &g.cfg
	if cfg.AnomalyEvery <= 0 {
		return
	}
	// Sweep over shelf stays sorted by start, keeping an active set.
	sort.Slice(g.shelved, func(i, j int) bool { return g.shelved[i].from < g.shelved[j].from })

	// Current items of each case, in id order, maintained as anomalies are
	// processed in time order so later selections see earlier moves.
	caseItems := make(map[model.TagID][]model.TagID)
	for item, as := range g.assigns {
		if len(as) > 0 {
			caseItems[as[0].c] = append(caseItems[as[0].c], model.TagID(item))
		}
	}

	var active []shelfStay
	next := 0
	count := 0
	for t := model.Epoch(cfg.AnomalyEvery); t < cfg.Epochs; t += model.Epoch(cfg.AnomalyEvery) {
		for next < len(g.shelved) && g.shelved[next].from <= t {
			active = append(active, g.shelved[next])
			next++
		}
		// Drop expired stays (swap-removal keeps this amortized O(1)).
		for i := 0; i < len(active); {
			if active[i].to <= t {
				active[i] = active[len(active)-1]
				active = active[:len(active)-1]
			} else {
				i++
			}
		}
		if len(active) < 2 {
			continue
		}
		// Pick a source case with at least one item, then a distinct target
		// case shelved at the same site.
		srcIdx := g.rng.IntN(len(active))
		src := active[srcIdx]
		items := caseItems[src.caseID]
		if len(items) == 0 {
			continue
		}
		var targets []int
		for i, st := range active {
			if i != srcIdx && st.site == src.site && st.caseID != src.caseID {
				targets = append(targets, i)
			}
		}
		if len(targets) == 0 {
			continue
		}
		item := items[g.rng.IntN(len(items))]
		count++

		var to model.TagID = -1
		remove := g.rng.Float64() < cfg.AnomalyRemoveFrac
		if cfg.AnomalyRemoveEvery > 0 {
			remove = count%cfg.AnomalyRemoveEvery == 0
		}
		if !remove {
			to = active[targets[g.rng.IntN(len(targets))]].caseID
		}
		// Apply the move.
		caseItems[src.caseID] = removeItem(caseItems[src.caseID], item)
		if to >= 0 {
			caseItems[to] = append(caseItems[to], item)
		}
		g.assigns[item] = append(g.assigns[item], assign{t: t, c: to})
		g.changes = append(g.changes, ContChange{T: t, Object: item, To: to})
	}
}

func removeItem(items []model.TagID, item model.TagID) []model.TagID {
	for i, it := range items {
		if it == item {
			items[i] = items[len(items)-1]
			return items[:len(items)-1]
		}
	}
	return items
}

// buildItemStays derives each item's stay timeline from its containment
// assignment history and the case timelines, and records the containment
// ground truth.
func (g *generator) buildItemStays() {
	for id, as := range g.assigns[:len(g.tags)] {
		if len(as) == 0 {
			continue // a pallet or a case
		}
		ts := &g.tags[id]
		// Two passes over the containers' stays: count, then fill a
		// timeline allocated once at its final size.
		for pass := 0; pass < 2; pass++ {
			n := 0
			for k, a := range as {
				if a.c < 0 {
					continue
				}
				end := g.cfg.Epochs
				if k+1 < len(as) {
					end = as[k+1].t
				}
				if pass == 1 {
					ts.cont = append(ts.cont, trace.ContSpan{From: a.t, To: end, Container: a.c})
				}
				for _, cs := range g.tags[a.c].stays {
					from, to := max(cs.from, a.t), min(cs.to, end)
					if from >= to {
						continue
					}
					if pass == 1 {
						ts.stays[n] = stay{site: cs.site, from: from, to: to, loc: cs.loc}
					}
					n++
				}
			}
			if pass == 0 && n > 0 {
				ts.stays = make([]stay, n)
			}
		}
		slices.SortFunc(ts.stays, func(a, b stay) int { return cmp.Compare(a.from, b.from) })
	}
}

// generateReadings draws Bernoulli readings for every stay of every tag.
func (g *generator) generateReadings() {
	for id := range g.tags {
		ts := &g.tags[id]
		ts.reads = make([][]pendRead, g.cfg.Warehouses)
		for _, st := range ts.stays {
			g.readStay(ts, st)
		}
	}
}

// readStay draws readings of a tag residing at st.loc during [st.from,
// st.to) from its own reader and, for shelves, the adjacent shelf readers.
func (g *generator) readStay(ts *tagState, st stay) {
	g.scanReader(ts, st, st.loc, g.scanRate[st.site][st.loc])
	if g.isShelf(st.loc) {
		for _, r := range []model.Loc{st.loc - 1, st.loc + 1} {
			if g.isShelf(r) {
				g.scanReader(ts, st, r, g.ovlRate[st.site][r])
			}
		}
	}
}

// scanReader draws readings by reader r of a tag during [st.from, st.to)
// with per-scan probability rate, at exactly the epochs where the schedule
// says r interrogates.
func (g *generator) scanReader(ts *tagState, st stay, r model.Loc, rate float64) {
	for t := st.from; t < st.to; t++ {
		if g.sched.Scans(r, t) && g.rng.Float64() < rate {
			ts.reads[st.site] = append(ts.reads[st.site], pendRead{t: t, r: r})
		}
	}
}

// assemble builds the site traces and visit lists from the generated state.
func (g *generator) assemble() (*World, error) {
	cfg := &g.cfg
	w := &World{
		Cfg:     *cfg,
		Epochs:  cfg.Epochs,
		Sites:   make([]*trace.Trace, cfg.Warehouses),
		Visits:  make([][]Visit, len(g.tags)),
		Changes: g.changes,
	}
	readers := g.readerLayout()
	for s := 0; s < cfg.Warehouses; s++ {
		tr := &trace.Trace{
			Epochs:  cfg.Epochs,
			Readers: readers,
			Rates:   g.rates[s],
			Sched:   g.sched,
			Tags:    make([]trace.Tag, len(g.tags)),
		}
		w.Sites[s] = tr
	}

	for id := range g.tags {
		ts := &g.tags[id]
		// Per-site readings.
		for s := 0; s < cfg.Warehouses; s++ {
			tag := &w.Sites[s].Tags[id]
			tag.ID = model.TagID(id)
			tag.Kind = ts.kind
			tag.Name = ts.name
			tag.TrueCont = ts.cont // shared global containment truth
			// A layout draws no readings, and a tag never at site s has
			// none there: neither has anything to sort.
			if ts.reads == nil || len(ts.reads[s]) == 0 {
				continue
			}
			pend := ts.reads[s]
			sort.Slice(pend, func(i, j int) bool {
				if pend[i].t != pend[j].t {
					return pend[i].t < pend[j].t
				}
				return pend[i].r < pend[j].r
			})
			for _, p := range pend {
				tag.Readings.Add(p.t, p.r)
			}
		}
		// Per-site location truth, and the visit list.
		for _, st := range ts.stays {
			tag := &w.Sites[st.site].Tags[id]
			n := len(tag.TrueLoc)
			if n > 0 && tag.TrueLoc[n-1].To == st.from && tag.TrueLoc[n-1].Loc == st.loc {
				tag.TrueLoc[n-1].To = st.to
			} else {
				tag.TrueLoc = append(tag.TrueLoc, trace.LocSpan{From: st.from, To: st.to, Loc: st.loc})
			}
			vs := w.Visits[id]
			if len(vs) > 0 && vs[len(vs)-1].Site == st.site && vs[len(vs)-1].Depart >= st.from {
				vs[len(vs)-1].Depart = st.to
				w.Visits[id] = vs
			} else {
				w.Visits[id] = append(vs, Visit{Site: st.site, Arrive: st.from, Depart: st.to})
			}
		}
	}
	for s := range w.Sites {
		if err := w.Sites[s].Validate(); err != nil {
			return nil, fmt.Errorf("sim: generated invalid trace for site %d: %w", s, err)
		}
	}
	return w, nil
}

// readerLayout describes the per-site reader locations.
func (g *generator) readerLayout() []trace.Reader {
	cfg := &g.cfg
	readers := make([]trace.Reader, 0, cfg.numLocs())
	readers = append(readers, trace.Reader{Loc: cfg.entryLoc(), Kind: trace.ReaderEntry, Name: "entry"})
	readers = append(readers, trace.Reader{Loc: cfg.beltLoc(), Kind: trace.ReaderBelt, Name: "belt"})
	for s := 0; s < cfg.Shelves; s++ {
		kind := trace.ReaderShelf
		if cfg.MobileShelves {
			kind = trace.ReaderMobile
		}
		readers = append(readers, trace.Reader{Loc: cfg.shelfLoc(s), Kind: kind, Name: fmt.Sprintf("shelf%d", s)})
	}
	readers = append(readers, trace.Reader{Loc: cfg.exitLoc(), Kind: trace.ReaderExit, Name: "exit"})
	return readers
}
