// Package rfinfer implements RFINFER (Section 3.2 of the paper): an
// expectation-maximization algorithm that jointly infers object containment
// and location from noisy RFID readings by smoothing over containment
// relations.
//
// The Engine is the deployed form of the algorithm: readings stream in via
// Observe, and Run executes RFINFER over the retained history (critical
// region plus recent history H̄), updates containment estimates, detects
// containment change points (Section 3.3), recomputes per-object critical
// regions, and truncates history (Section 4.1). Engines are single-site;
// state migration between sites uses ExportCollapsed/ExportCR and the
// corresponding imports, and the source then drops what it exported with
// Forget.
package rfinfer

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"rfidtrack/internal/model"
	"rfidtrack/internal/workpool"
)

// epochMin and epochMax bound the representable epoch range; they mark
// "all history" windows in the memoization and union helpers.
const (
	epochMin model.Epoch = -1 << 31
	epochMax model.Epoch = 1<<31 - 1
)

// Truncation selects the history-retention strategy compared in Figures
// 5(a,b) and 6(b).
type Truncation uint8

const (
	// TruncateCR keeps each object's critical region plus the recent
	// history H̄ (the paper's CR method, the default).
	TruncateCR Truncation = iota
	// TruncateNone keeps the entire history (the "All" baseline).
	TruncateNone
	// TruncateWindow keeps only the most recent FixedWindow epochs (the
	// "W1200" baseline).
	TruncateWindow
)

// Config tunes the engine. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// RecentHistory is H̄: how many epochs of recent history inference and
	// change-point detection use (600 by default, as in Section 5.1).
	RecentHistory model.Epoch
	// Truncation selects the retention strategy.
	Truncation Truncation
	// FixedWindow is the window size for TruncateWindow (1200 in Fig 5a).
	FixedWindow model.Epoch
	// MaxCandidates bounds candidate pruning (Appendix A.3).
	MaxCandidates int
	// MaxIters caps EM iterations; RFINFER usually converges in a few.
	MaxIters int
	// CRWindow is the sliding window width w of the critical-region search.
	CRWindow model.Epoch
	// CRThreshold is the heuristic margin between the best and second-best
	// candidate's windowed evidence required to declare a critical region.
	CRThreshold float64
	// Delta is the change-point threshold δ: a Run reassigns an object and
	// drops its pre-change history when its statistic Δ (Eq 6) reaches it.
	// <= 0 disables change-point detection. Use changepoint.ChooseThreshold
	// (or a Δ sample from CollectDeltas) for the offline value. Detection
	// reads the evidence the M-step and the critical-region search already
	// keep: setting Delta adds one test per object with fresh readings and
	// selects no other code path.
	Delta float64
	// LocEpochs is how many recent active epochs a location read-off
	// aggregates (3 by default); see posterior.locateAt.
	LocEpochs int
	// CollectDeltas runs the change-point test even while Delta is off and
	// records every Δ statistic it computes (acting on none unless Delta is
	// also set). Used to calibrate δ offline on change-free simulated
	// traces.
	CollectDeltas bool
	// Workers sizes the private worker pool a stand-alone engine fans its
	// phases out on (candidate pruning, E-step, M-step, change-point
	// detection, critical-region search, memo refresh). 0 (the default)
	// uses GOMAXPROCS; 1 runs everything on the caller. An engine handed a
	// shared pool (UsePool) runs on that instead and ignores this. Inference
	// output is bit-identical at every worker count.
	Workers int
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		RecentHistory: 600,
		Truncation:    TruncateCR,
		FixedWindow:   1200,
		MaxCandidates: 8,
		MaxIters:      10,
		CRWindow:      60,
		CRThreshold:   10,
		LocEpochs:     3,
	}
}

// window is a half-open epoch interval [From, To).
type window struct {
	From, To model.Epoch
}

func (w window) empty() bool { return w.From >= w.To }

// Detection records a detected containment change point.
type Detection struct {
	// Object is the object whose containment changed.
	Object model.TagID
	// At is the estimated change epoch t'.
	At model.Epoch
	// DetectedAt is the inference-run epoch that flagged the change.
	DetectedAt model.Epoch
	// NewContainer is the post-change container estimate (-1 if none).
	NewContainer model.TagID
	// Delta is the likelihood-ratio statistic value.
	Delta float64
}

// tagRec is the engine's per-tag state. Every registered tag at every site
// owns one, so its size is a footprint and start-up cost in its own right:
// flags and 4-byte fields are declared next to each other so the record
// stays inside the allocator's 512-byte class (TestTagRecSizeClass).
type tagRec struct {
	id          model.TagID
	isContainer bool
	// untagged marks containers without their own tag (Appendix A.4): the
	// container-reading factors of Eq 4 are omitted for them.
	untagged bool
	series   model.Series
	// seriesVer counts series mutations (observations, truncation, history
	// resets, state imports): the cheap change signal behind the M-step's
	// evidence memo.
	seriesVer uint32
	// ci is a container's index into Engine.containers, written by every
	// candidate build's flatten (declared here, beside seriesVer, to fill
	// what would be padding).
	ci int32

	// Object state.
	cands  []model.TagID
	priorW []float64 // aligned with cands; collapsed weights from migration
	// priorDefault is the prior weight of candidates with no migrated
	// weight: the uniform-posterior evidence the object accumulated at
	// previous sites (a container never co-located scores uniform).
	priorDefault float64
	container    model.TagID
	cpStart      model.Epoch  // change-point search starts here (A.2)
	cr           window       // critical region
	ev           *objEvidence // M-step evidence, reused across Runs
	bestK        int          // best candidate index from the last M-step pass
	// dropped lists the epochs whose readings this Run's truncation (or
	// change-point history reset) removed, sorted ascending. The memo
	// refresh recomputes exactly the posterior rows these epochs invalidate.
	dropped []model.Epoch

	// Container state.
	group    []model.TagID // members the posterior was computed with
	groupNow []model.TagID // members per the current containment estimate
	post     posterior
	keepWins []window // candidate-objects' critical regions (truncation)

	// Cross-Run memo state (Appendix A.3 extended across Runs): the
	// posterior is keyed by group, and its rows stay exact below the add
	// floor of the container and its members (see eStep). postValid marks
	// that post holds a computed posterior, exact for the history as the
	// end of the last Run left it; postThrough is the Run horizon it was
	// last computed to; computedSeq is the engine Run sequence that last
	// computed (or carried) the posterior, distinguishing per-Run
	// invalidation from EM-iteration reuse.
	computedSeq uint64
	postThrough model.Epoch
	postValid   bool

	// Incremental Δ-checkpoint state (see PERFORMANCE.md). dirty marks that
	// the tag's series or migrated state changed since the end of the
	// previous Run. evSeq is the Run sequence that last recomputed rec.ev:
	// when it is not the current Run's, every input of the critical-region
	// search is bit-identical to the previous Run's, so the verdict already
	// stored in rec.cr carries forward. addFloor is the lowest epoch observed
	// (or merged) into the series since the end of the previous Run
	// (epochMax when none was): the E-step memo keeps the posterior rows
	// below it.
	dirty    bool
	addFloor model.Epoch
	evSeq    uint64
}

// posterior is a container's location posterior q_tc at its active epochs,
// stored as one contiguous backing array (row i at q[i*n:(i+1)*n]) that is
// reused across Runs.
//
// Everything the M-step needs from a row that does not depend on which
// object is asking lives here too, computed once where the row is written:
// qBase and its prefix sums for an epoch the object was not read at, and
// cells for an epoch it was read at by a single reader — cells[i*n+r] is
// dot(row i, DeltaRow(r)), the q_c(t)·δ(r) of Eq 7, the same number for
// every item of the case, every EM iteration and every later Run that keeps
// the row. cells is derived state: it is filled by computePosterior and
// refreshMemo, moves with its row on compaction, is never serialized, and a
// snapshot restore leaves it empty (the restore also leaves the memo
// invalid, so the next E-step rebuilds the posterior, cells included,
// before any M-step of a Run reads it). Readers treat a cells slice whose
// length is not len(q) as absent and take the dot directly.
//
// Every posterior also carries a rank index over its epochs (idx, idxBase;
// see rowOf), so the M-step finds the row of an object's read epoch with one
// load and a popcount instead of walking the epoch list up to it. Like
// prefAdv it is rebuilt by refreshAdv, which every content change calls.
type posterior struct {
	epochs []model.Epoch
	n      int       // row stride: number of reader locations
	q      []float64 // len(epochs)*n posterior rows
	cells  []float64 // len(q) single-reader evidence cells, or empty (restored)
	qBase  []float64 // per epoch: dot(q, base) — evidence of an unread object
	// advSum is the container's object-independent evidence advantage:
	// sum over active epochs of qBase minus the uniform-posterior evidence
	// there. It is the bulk of any unread object's co-location total against
	// this container, shared by every object that lists it as a candidate,
	// and is refreshed whenever the posterior content changes (see
	// scoreEvidence). prefAdv is its prefix-sum form —
	// prefAdv[i+1] sums the first i+1 active epochs, prefAdv[0] = 0,
	// advSum = prefAdv[len(epochs)] — which lets the critical-region search
	// take any epoch range of the advantage as one subtraction.
	advSum  float64
	prefAdv []float64
	// idx is the epochs' rank index: word w covers the 64 epochs from
	// idxBase + 64w, idx[2w] holds their presence bits and idx[2w+1] the
	// number of epochs below them. Empty with epochs present means the
	// epochs are too sparse for a dense index (see reindex).
	idx []uint64
	// ver counts content mutations (recompute, memo compaction): objects
	// whose candidates' posteriors all carry the version their evidence was
	// computed against can skip the M-step rebuild entirely.
	ver     uint32
	idxBase model.Epoch
}

// rowOf returns the row of epoch t, or -1 when t is not an active epoch.
// It is too big for the compiler to inline, so the M-step's loop repeats
// its two lines with the index fields hoisted (−20 % on BenchmarkMStep).
func (p *posterior) rowOf(t model.Epoch) int {
	if d := uint(int64(t) - int64(p.idxBase)); d>>6<<1 < uint(len(p.idx)) {
		w := d >> 6 << 1
		return indexRow(p.idx[w], p.idx[w+1], d&63)
	}
	return p.rowOutside(t)
}

// indexRow is the row of the epoch at bit b of an index word whose epochs
// are preceded by cum others, or -1 when the bit is clear. The row is the
// epoch's rank less one:
//
//	rank(t) = cum + popcount(word << (63−b))
//
// — the epochs below the word plus the word's epochs up to and including
// t. It finds exactly the row a walk of the sorted epochs would stop on,
// and no row where the walk would find none.
func indexRow(word, cum uint64, b uint) int {
	if word>>b&1 == 0 {
		return -1
	}
	return int(cum) + bits.OnesCount64(word<<(63-b)) - 1
}

// rowOutside is rowOf for an epoch outside the dense index: never active,
// unless the posterior is too sparse to index densely and is searched.
func (p *posterior) rowOutside(t model.Epoch) int {
	if len(p.idx) == 0 {
		if i, ok := slices.BinarySearch(p.epochs, t); ok {
			return i
		}
	}
	return -1
}

// rank returns how many active epochs lie at or before t.
func (p *posterior) rank(t model.Epoch) int {
	d := int64(t) - int64(p.idxBase)
	switch w := d >> 6; {
	case len(p.idx) == 0:
		return sort.Search(len(p.epochs), func(i int) bool { return p.epochs[i] > t })
	case d < 0:
		return 0
	case w >= int64(len(p.idx)>>1):
		return len(p.epochs)
	default:
		return int(p.idx[2*w+1]) + bits.OnesCount64(p.idx[2*w]<<(63-uint(d&63)))
	}
}

// reindex rebuilds the rank index from the epochs. The index is dense over
// the epoch span, so it is built only while that span needs at most
// 4·len(epochs)+1024 words (the co-occurrence index's bound): a posterior
// spread thinner than that — a few readings tens of thousands of epochs
// apart, which only a corrupt or hostile migration payload or snapshot
// produces — keeps an empty index and is searched instead, so no
// allocation grows with an epoch read off the wire. Epochs out of order (a
// corrupt snapshot again) take the same way out.
func (p *posterior) reindex() {
	n := 0
	var lo, span int64
	if len(p.epochs) > 0 {
		lo = int64(p.epochs[0])
		span = int64(p.epochs[len(p.epochs)-1]) - lo + 1
		if words := (span + 63) >> 6; span > 0 && words <= 4*int64(len(p.epochs))+1024 {
			n = int(2 * words)
		}
	}
	idx := keepGrow(p.idx, 0, n)[:n]
	p.idx = idx
	if n == 0 {
		return
	}
	clear(idx)
	prev := lo - 1
	for _, t := range p.epochs {
		d := int64(t) - lo
		if int64(t) <= prev || d >= span {
			p.idx = idx[:0] // out of order: no index
			return
		}
		prev = int64(t)
		idx[2*(d>>6)] |= 1 << (d & 63)
	}
	cum := uint64(0)
	for w := 0; w < n; w += 2 {
		idx[w+1] = cum
		cum += uint64(bits.OnesCount64(idx[w]))
	}
	p.idx, p.idxBase = idx, model.Epoch(lo)
}

// row returns the posterior distribution at active-epoch index i.
func (p *posterior) row(i int) []float64 { return p.q[i*p.n : (i+1)*p.n : (i+1)*p.n] }

// dot is the evidence inner product Σ_a q[a]·d[a], summed in location
// order. Every q·δ the engine takes — the cells filled below and the direct
// fallback in the M-step — goes through it, so a cell and the dot it stands
// for are the same bits.
func dot(q, d []float64) float64 {
	q = q[:len(d)]
	sum := 0.0
	for a, w := range d {
		sum += q[a] * w
	}
	return sum
}

// fillCells computes row i's evidence cells from its current q. Callers
// invoke it at every site that writes a row.
func (p *posterior) fillCells(lik *model.Likelihood, i int) {
	q, out := p.row(i), p.cells[i*p.n:(i+1)*p.n]
	for r := range out {
		out[r] = dot(q, lik.DeltaRow(model.Loc(r)))
	}
}

// refreshAdv recomputes advSum from the current rows and rebuilds the rank
// index. Callers invoke it at every site that changes posterior content
// (recompute, memo compaction, snapshot restore), always over the full epoch
// list in ascending order, so the value is bit-identical however the
// posterior reached its state.
func (p *posterior) refreshAdv(lik *model.Likelihood) {
	p.reindex()
	pre := append(keepGrow(p.prefAdv, 0, len(p.epochs)+1), 0)
	s := 0.0
	for i, t := range p.epochs {
		s += p.qBase[i] - lik.UniformBase(t)
		pre = append(pre, s)
	}
	p.prefAdv = pre
	p.advSum = s
}

// advThrough returns the posterior's advantage summed over its first i
// active epochs. A posterior that was never computed — an imported candidate
// id this site holds no container for — has no prefix and no advantage.
func (p *posterior) advThrough(i int) float64 {
	if i < len(p.prefAdv) {
		return p.prefAdv[i]
	}
	return 0
}

// resize keeps the first keep rows (with their cells) and sizes storage for
// rows total rows.
func (p *posterior) resize(keep, rows, n int) {
	p.n = n
	p.epochs = keepGrow(p.epochs, keep, rows)
	p.q = keepGrow(p.q, keep*n, rows*n)
	p.cells = keepGrow(p.cells, keep*n, rows*n)
	p.qBase = keepGrow(p.qBase, keep, rows)
}

// keepGrow returns buf cut to its first keep entries with room for total.
// It is the one sizing rule of every buffer whose need follows a retained
// history: the backing is reused while total lies between half its capacity
// and all of it, and otherwise replaced by one of exactly total entries —
// grown when too small, shrunk when truncation or departure left it more
// than half empty, released (nil) when nothing is needed. So storage
// follows the history the record holds now, not the largest it ever held,
// and a buffer holds at most twice what it uses. A reallocation copies
// exactly the entries a reslice would have kept, so no value changes.
func keepGrow[T any](buf []T, keep, total int) []T {
	if c := cap(buf); total <= c && 2*total >= c {
		return buf[:keep]
	}
	if total == 0 {
		return nil
	}
	grown := make([]T, keep, total)
	copy(grown, buf[:keep])
	return grown
}

// RunStats counts the hot-path work of the most recent Run, exposing how
// effective the cross-Run memoization was (see PERFORMANCE.md).
type RunStats struct {
	// PosteriorsComputed counts containers whose posterior was (re)computed;
	// PosteriorsSkipped counts containers served whole from the memo.
	PosteriorsComputed, PosteriorsSkipped int
	// RowsReused counts posterior epoch rows carried over from the previous
	// Run inside recomputed containers; RowsComputed counts rows evaluated
	// from scratch.
	RowsReused, RowsComputed int
	// EvidenceComputed counts objects whose evidence the M-step rebuilt;
	// EvidenceSkipped counts objects served whole from the evidence memo
	// (unchanged series, candidates, priors and candidate posteriors).
	// Later EM iterations of a converging Run skip almost every object.
	EvidenceComputed, EvidenceSkipped int
	// EvidenceSegmentsReused counts, inside the rebuilt objects, the
	// candidates whose correction column was kept verbatim because their
	// posterior had not moved since the object's last build;
	// EvidenceSegmentsComputed counts the candidates scored afresh. Their
	// sum is the candidate count of the EvidenceComputed objects.
	EvidenceSegmentsReused, EvidenceSegmentsComputed int
	// DirtyTags counts tags whose series or migrated state changed between
	// the previous Run and this one — the incremental checkpoint's input
	// size. GroupsDirty counts container groups whose posterior had to be
	// recomputed on their first E-step visit of the Run.
	DirtyTags, GroupsDirty int
	// CRSearches counts the objects whose critical region was searched
	// (objects whose evidence stood carry their region forward unsearched).
	// CRWindowsScanned counts the window positions those searches
	// evaluated, newest first up to and including a hit;
	// CRRowsBuilt counts the evidence epochs merged into their window tables
	// — the windows scanned plus one window width of look-behind;
	// CRSearchesNoHit counts the searches that walked the whole retained
	// history without finding a decisive window.
	CRSearches, CRWindowsScanned, CRRowsBuilt, CRSearchesNoHit int
	// StorageBytes is what the per-tag history storage holds after the
	// Run's truncation — the capacity of every series, correction table and
	// posterior array, in bytes — and StorageUsedBytes the part of it in use
	// (their lengths).
	// Every buffer is sized by one rule that keeps it within twice its use
	// (see keepGrow), so held follows the retained history, not the largest
	// history a record ever had.
	StorageBytes, StorageUsedBytes int
}

// storageSum totals the bytes the per-tag history buffers hold (capacity)
// and use (length), for RunStats.
type storageSum struct{ held, used int }

// addBuf counts one buffer into s.
func addBuf[T any](s *storageSum, buf []T) {
	size := int(unsafe.Sizeof(*new(T)))
	s.held += cap(buf) * size
	s.used += len(buf) * size
}

// addTag counts rec's series, evidence tables and posterior arrays.
func (s *storageSum) addTag(rec *tagRec) {
	addBuf(s, rec.series)
	if ev := rec.ev; ev != nil {
		addBuf(s, ev.corr)
	}
	p := &rec.post
	addBuf(s, p.epochs)
	addBuf(s, p.q)
	addBuf(s, p.cells)
	addBuf(s, p.qBase)
	addBuf(s, p.prefAdv)
	addBuf(s, p.idx)
}

// Engine runs RFINFER over a stream of readings at one site.
type Engine struct {
	lik *model.Likelihood
	cfg Config

	tags       tagTable
	farTags    map[uint32]*tagRec // records the dense table does not reach (see setTag)
	objects    []model.TagID      // sorted
	containers []model.TagID      // sorted
	cps        []cpVerdict        // detectChanges' verdicts, aligned with objects

	now     model.Epoch
	lastRun model.Epoch
	prevRun model.Epoch // the run before lastRun (snapshot presence cutoff)
	iters   int         // EM iterations used by the last Run

	detections []Detection

	// deltaSamples holds Δ values observed while CollectDeltas is set.
	deltaSamples []DeltaSample

	pool   *workpool.Pool // shared (UsePool), or private to the Run in progress
	runSeq uint64         // Run counter; per-Run E-step invalidation key

	// Hot-path counters, accumulated atomically by workers and snapshotted
	// into stats at the end of each Run.
	nComputed, nSkipped, nRowsReused, nRowsComputed atomic.Int64
	nEvComputed, nEvSkipped                         atomic.Int64
	nSegReused, nSegComputed                        atomic.Int64
	nGroupsDirty                                    atomic.Int64
	nCRSearches, nCRWindows, nCRRows, nCRNoHit      atomic.Int64
	storage                                         storageSum // summed by truncate
	stats                                           RunStats

	// Incremental Δ-checkpoint bookkeeping (see incremental.go). dirtyTags
	// counts tags flagged dirty since the end of the last Run (== the number
	// of set tagRec.dirty flags). noCarry disables every carry-forward fast
	// path — between Runs (every posterior is recomputed from scratch on
	// its first visit in a Run), and the M-step's evidence memo between EM
	// iterations too — the equivalence tests' reference mode.
	dirtyTags int
	noCarry   bool

	// The flattened co-occurrence index candidate pruning reads, reused
	// across Runs.
	cont contIndex
}

// New returns an engine for a site with the given observation model
// (measured read rates plus reader schedule).
func New(lik *model.Likelihood, cfg Config) *Engine {
	return &Engine{lik: lik, cfg: cfg}
}

// tagTable holds the engine's tag records indexed by tag id, so reaching a
// record is a bounds check and a load instead of a hash. Ids a site never
// registers (pallets, other sites' tag kinds) are nil holes; a range loop
// skips them (allTags). Simulated and deployed tag ids are dense from 0, so
// the table stays within a small factor of the registered count.
type tagTable []*tagRec

// tag returns id's record, or nil when id is not registered.
func (e *Engine) tag(id model.TagID) *tagRec {
	if u := uint32(id); u < uint32(len(e.tags)) {
		if rec := e.tags[u]; rec != nil {
			return rec
		}
	}
	return e.farTags[uint32(id)]
}

// setTag files a new record under id. The dense table grows to reach id
// only while it stays within max(2 × registered, 1024) slots; a record past
// that — a negative or far-out id, which only a corrupt migration payload
// or snapshot names — goes in farTags, keyed by the id's bits exactly as the
// table addresses them, so no allocation grows with an id read off the wire.
// A far record stays where it was filed even if the table later grows past
// its id; tag looks behind the table's empty slot for it.
func (e *Engine) setTag(id model.TagID, rec *tagRec) {
	u := uint32(id)
	if u >= uint32(len(e.tags)) {
		if limit := max(2*(len(e.objects)+len(e.containers)+1), 1024); uint64(u) >= uint64(limit) {
			if e.farTags == nil {
				e.farTags = make(map[uint32]*tagRec)
			}
			e.farTags[u] = rec
			return
		}
		n := len(e.tags)
		e.tags = slices.Grow(e.tags, int(u)+1-n)[:u+1]
		clear(e.tags[n:])
	}
	e.tags[u] = rec
}

// growTags gives the dense table the capacity to file every id of tags that
// setTag could place in it once they are all registered, so registering
// them reallocates the table at most once. The bound is setTag's limit with
// every tag counted: the capacity stays within the factor the table is
// allowed of the registered count, whatever ids the declarations carry.
func (e *Engine) growTags(tags []TagDecl) {
	limit := uint64(max(2*(len(e.objects)+len(e.containers)+len(tags)+1), 1024))
	top := -1
	for _, t := range tags {
		if u := uint64(uint32(t.ID)); u < limit {
			top = max(top, int(u))
		}
	}
	if top >= len(e.tags) {
		e.tags = slices.Grow(e.tags, top+1-len(e.tags))
	}
}

// allTags yields every registered record: the table's in id order, then
// the far ones.
func (e *Engine) allTags(yield func(*tagRec) bool) {
	for _, rec := range e.tags {
		if rec != nil && !yield(rec) {
			return
		}
	}
	for _, rec := range e.farTags {
		if !yield(rec) {
			return
		}
	}
}

// Stats returns the hot-path counters of the most recent Run.
func (e *Engine) Stats() RunStats { return e.stats }

// TagDecl declares one tag to Register: a container when Container is
// set, an object otherwise.
type TagDecl struct {
	ID        model.TagID
	Container bool
}

// Register declares tags in order, each exactly as RegisterObject or
// RegisterContainer would, but files every new record in one allocation,
// made at the first tag not yet registered and sized for the rest: a
// site's start-up costs one slab instead of one 512-byte record per tag,
// and a call that registers nothing allocates nothing. The dense table
// grows once, at the same point, to the largest id the rest may file in it.
// A tag already registered, or declared twice, is skipped.
func (e *Engine) Register(tags []TagDecl) {
	var slab []tagRec
	for i, t := range tags {
		if e.tag(t.ID) != nil {
			continue
		}
		if len(slab) == cap(slab) {
			slab = make([]tagRec, 0, len(tags)-i)
			e.growTags(tags[i:])
		}
		slab = slab[:len(slab)+1]
		rec := &slab[len(slab)-1]
		rec.id, rec.isContainer, rec.container, rec.addFloor = t.ID, t.Container, -1, epochMax
		e.setTag(t.ID, rec)
		if t.Container {
			e.containers = insertSorted(e.containers, t.ID)
		} else {
			e.objects = insertSorted(e.objects, t.ID)
		}
	}
}

// RegisterObject declares an object tag. Registering twice is a no-op.
func (e *Engine) RegisterObject(id model.TagID) {
	e.Register([]TagDecl{{ID: id}})
}

// RegisterContainer declares a container tag. Registering twice is a no-op.
func (e *Engine) RegisterContainer(id model.TagID) {
	e.Register([]TagDecl{{ID: id, Container: true}})
}

// RegisterUntaggedContainer declares a container that carries no tag of its
// own (Appendix A.4): it can still be a containment candidate, but its own
// never-read observations carry no evidence — the container-reading factors
// are omitted from the posterior.
func (e *Engine) RegisterUntaggedContainer(id model.TagID) {
	e.RegisterContainer(id)
	e.tag(id).untagged = true
}

func insertSorted(s []model.TagID, id model.TagID) []model.TagID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// Observe records that reader r read tag id at epoch t.
func (e *Engine) Observe(t model.Epoch, id model.TagID, r model.Loc) error {
	rec := e.tag(id)
	if rec == nil {
		return fmt.Errorf("rfinfer: reading for unregistered tag %d", id)
	}
	if r < 0 || int(r) >= e.lik.N() {
		return fmt.Errorf("rfinfer: reading from unknown reader %d", r)
	}
	rec.series.Add(t, r)
	rec.seriesVer++
	e.noteMutation(rec, t)
	if t > e.now {
		e.now = t
	}
	return nil
}

// ObserveMask records a whole epoch mask for a tag.
func (e *Engine) ObserveMask(t model.Epoch, id model.TagID, m model.Mask) error {
	rec := e.tag(id)
	if rec == nil {
		return fmt.Errorf("rfinfer: reading for unregistered tag %d", id)
	}
	rec.series.AddMask(t, m)
	rec.seriesVer++
	e.noteMutation(rec, t)
	if t > e.now {
		e.now = t
	}
	return nil
}

// Now returns the latest observed (or Run) epoch.
func (e *Engine) Now() model.Epoch { return e.now }

// Iterations returns how many EM iterations the last Run used.
func (e *Engine) Iterations() int { return e.iters }

// locWindow returns the configured location read-off aggregation depth.
func (e *Engine) locWindow() int {
	if e.cfg.LocEpochs < 1 {
		return 1
	}
	return e.cfg.LocEpochs
}

// Container returns the current containment estimate for an object
// (-1 if unknown or not an object).
func (e *Engine) Container(id model.TagID) model.TagID {
	if rec := e.tag(id); rec != nil && !rec.isContainer {
		return rec.container
	}
	return -1
}

// Containment returns the full current containment relation as a map from
// object to container (objects with no estimate map to -1).
func (e *Engine) Containment() map[model.TagID]model.TagID {
	out := make(map[model.TagID]model.TagID, len(e.objects))
	for _, id := range e.objects {
		out[id] = e.tag(id).container
	}
	return out
}

// DeltaSample is one recorded Δ statistic.
type DeltaSample struct {
	Object model.TagID
	Delta  float64
}

// DeltaSamples returns the Δ statistics recorded under CollectDeltas.
func (e *Engine) DeltaSamples() []DeltaSample { return e.deltaSamples }

// Detections returns all change points detected so far, in detection order.
func (e *Engine) Detections() []Detection { return e.detections }

// Objects returns the sorted registered object IDs.
func (e *Engine) Objects() []model.TagID { return e.objects }

// Containers returns the sorted registered container IDs.
func (e *Engine) Containers() []model.TagID { return e.containers }

// CriticalRegion returns the object's current critical region (zero window
// if none found yet).
func (e *Engine) CriticalRegion(id model.TagID) (from, to model.Epoch) {
	if rec := e.tag(id); rec != nil {
		return rec.cr.From, rec.cr.To
	}
	return 0, 0
}
