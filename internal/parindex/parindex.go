// Package parindex maintains incremental Pareto-front indexes over
// streamed measurement points, the serving-side data structure behind
// GET /optimize. Where internal/pareto recomputes fronts from a
// materialized []Point batch, parindex absorbs points one at a time —
// as campaign sinks deliver them — and keeps, per (device, workload)
// key, only the current non-dominated set in a balanced order-statistic
// tree. Insert is O(log n) amortized (each point enters and leaves the
// front at most once), and constraint queries ("cheapest config within
// a time budget", "fastest config within an energy budget") are
// O(log n) descents.
//
// The front invariant: entries are kept sorted by strictly increasing
// time, and along that order energy is strictly decreasing. Any point
// violating that order is dominated and is either rejected on insert or
// evicted when a dominating point arrives. Ties on (time, energy)
// collapse keeping the incumbent, matching the first-encountered
// collapse in pareto.Ranks, so an index fed a campaign's points in
// commit order reproduces pareto.Front of the same batch exactly.
package parindex

import (
	"math"
	"sync"
	"sync/atomic"

	"energyprop/internal/pareto"
)

// Entry is one indexed measurement: a configuration's canonical key and
// display label with its measured time/energy coordinates.
type Entry struct {
	// Config is the canonical configuration key (device.Config.Key()).
	Config string `json:"config"`
	// Label is the human-readable configuration string.
	Label string `json:"label"`
	// Time is the measured execution time in seconds.
	Time float64 `json:"seconds"`
	// Energy is the measured dynamic energy in joules.
	Energy float64 `json:"dyn_energy_j"`
}

// node is one treap node. The treap is keyed by Time (BST order) with
// deterministic hash-derived priorities (heap order), so the tree shape
// is a pure function of the inserted set — no RNG, no nodeterm finding.
type node struct {
	e           Entry
	prio        uint64
	left, right *node
}

// prioFor derives a node's heap priority from its coordinates and
// config key via inline FNV-1a. Hash priorities give the expected
// O(log n) treap depth without math/rand, keeping the tree shape
// deterministic for a given point set.
func prioFor(e Entry) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(math.Float64bits(e.Time))
	mix(math.Float64bits(e.Energy))
	for i := 0; i < len(e.Config); i++ {
		h ^= uint64(e.Config[i])
		h *= prime64
	}
	return h
}

// Front is one incrementally-maintained 2-D Pareto front. The zero
// value is an empty front ready for use. Front is not safe for
// concurrent use; Index adds the locking for the serving path.
type Front struct {
	root *node
	size int
}

// Len returns the number of non-dominated entries currently held.
func (f *Front) Len() int { return f.size }

// merge joins two treaps where every key in a precedes every key in b.
func merge(a, b *node) *node {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio >= b.prio {
		a.right = merge(a.right, b)
		return a
	}
	b.left = merge(a, b.left)
	return b
}

// splitLT splits t into (keys with Time < cut, keys with Time >= cut).
func splitLT(t *node, cut float64) (lt, ge *node) {
	if t == nil {
		return nil, nil
	}
	if t.e.Time < cut {
		l, g := splitLT(t.right, cut)
		t.right = l
		return t, g
	}
	l, g := splitLT(t.left, cut)
	t.left = g
	return l, t
}

// floor returns the entry with the greatest Time <= t, if any.
func (f *Front) floor(t float64) (Entry, bool) {
	var best *node
	for n := f.root; n != nil; {
		if n.e.Time <= t {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		return Entry{}, false
	}
	return best.e, true
}

// firstWithin returns the leftmost (fastest) entry with Energy <=
// maxE. Because energy strictly decreases along the time order, the
// qualifying entries form a suffix of the front, and the boundary is
// found in one O(log n) descent.
func (f *Front) firstWithin(maxE float64) (Entry, bool) {
	var best *node
	for n := f.root; n != nil; {
		if n.e.Energy <= maxE {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		return Entry{}, false
	}
	return best.e, true
}

// Insert offers a point to the front. It returns true if the point was
// admitted (it is non-dominated), false if an existing entry dominates
// it. Admitting a point evicts any entries it dominates. An exact
// (time, energy) duplicate keeps the incumbent entry — the same
// first-encountered collapse pareto.Ranks applies — and reports false.
func (f *Front) Insert(e Entry) bool {
	// Reject anything a predecessor (faster-or-equal, cheaper-or-equal)
	// already covers. floor finds the slowest entry with Time <= e.Time;
	// by the decreasing-energy invariant it is also the cheapest such
	// entry, so it alone decides dominance.
	if p, ok := f.floor(e.Time); ok && p.Energy <= e.Energy {
		return false
	}
	// e survives. Among entries with Time >= e.Time, exactly those with
	// Energy >= e.Energy are now dominated — and by the
	// decreasing-energy invariant they form a contiguous prefix of the
	// split-off right part.
	lt, ge := splitLT(f.root, e.Time)
	for ge != nil && ge.leftmost().e.Energy >= e.Energy {
		ge = ge.deleteLeftmost()
		f.size--
	}
	n := &node{e: e, prio: prioFor(e)}
	f.root = merge(merge(lt, n), ge)
	f.size++
	return true
}

// leftmost returns the minimum-Time node of a non-nil subtree.
func (n *node) leftmost() *node {
	for n.left != nil {
		n = n.left
	}
	return n
}

// deleteLeftmost removes the minimum-Time node and returns the new
// subtree root.
func (n *node) deleteLeftmost() *node {
	if n.left == nil {
		return n.right
	}
	n.left = n.left.deleteLeftmost()
	return n
}

// Entries returns the front in increasing-time order.
func (f *Front) Entries() []Entry {
	out := make([]Entry, 0, f.size)
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.e)
		walk(n.right)
	}
	walk(f.root)
	return out
}

// Points returns the front as pareto.Points in increasing-time order,
// for handing to the batch analysis helpers (TradeOffs, Hypervolume).
func (f *Front) Points() []pareto.Point {
	es := f.Entries()
	out := make([]pareto.Point, len(es))
	for i, e := range es {
		out[i] = pareto.Point{Label: e.Label, Time: e.Time, Energy: e.Energy}
	}
	return out
}

// Query is one constraint lookup. A field is active when positive;
// at least one must be set.
type Query struct {
	// MaxTime bounds execution time in seconds; the answer is the
	// minimum-energy entry meeting it.
	MaxTime float64
	// MaxEnergy bounds dynamic energy in joules; the answer is the
	// minimum-time entry meeting it.
	MaxEnergy float64
}

// Best answers a constraint query against the front. ok is false when
// no front entry satisfies the constraints.
func (f *Front) Best(q Query) (Entry, bool) {
	if q.MaxTime > 0 {
		// Minimum energy within the time budget is the slowest
		// qualifying entry (energy decreases with time along the front).
		e, ok := f.floor(q.MaxTime)
		if !ok {
			return Entry{}, false
		}
		if q.MaxEnergy > 0 && e.Energy > q.MaxEnergy {
			return Entry{}, false
		}
		return e, true
	}
	if q.MaxEnergy > 0 {
		return f.firstWithin(q.MaxEnergy)
	}
	return Entry{}, false
}

// Key addresses one front in an Index: a device's registry name plus
// the normalized workload identity.
type Key struct {
	Device   string `json:"device"`
	App      string `json:"app"`
	N        int    `json:"n"`
	Products int    `json:"products"`
}

// Stats is a point-in-time snapshot of an Index's counters.
type Stats struct {
	// Fronts is the number of (device, workload) keys indexed.
	Fronts int `json:"fronts"`
	// Entries is the total number of front entries across keys.
	Entries int `json:"entries"`
	// Inserts counts offered points; Admitted counts those that
	// entered a front (the rest were dominated or duplicates).
	Inserts  uint64 `json:"inserts"`
	Admitted uint64 `json:"admitted"`
	// Queries counts Best lookups; Hits counts those that returned an
	// entry.
	Queries uint64 `json:"queries"`
	Hits    uint64 `json:"hits"`
}

// Index is the per-process collection of fronts, keyed by
// (device, workload), safe for concurrent insert and query. Reads take
// an RLock so concurrent /optimize traffic never serializes; inserts
// are brief exclusive sections.
type Index struct {
	mu     sync.RWMutex
	fronts map[Key]*Front

	inserts, admitted uint64 // guarded by mu (writes hold the exclusive lock)
	queries, hits     atomic.Uint64
}

// NewIndex builds an empty index.
func NewIndex() *Index {
	return &Index{fronts: map[Key]*Front{}}
}

// Insert offers a point to the front for key, creating the front on
// first use. It reports whether the point was admitted.
func (x *Index) Insert(k Key, e Entry) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	f, ok := x.fronts[k]
	if !ok {
		f = &Front{}
		x.fronts[k] = f
	}
	x.inserts++
	admitted := f.Insert(e)
	if admitted {
		x.admitted++
	}
	return admitted
}

// Best answers a constraint query against key's front. frontSize is the
// number of entries the front holds — zero means the key has never
// received a point (uncovered), which callers distinguish from a
// covered front where no entry satisfies the constraints (infeasible).
func (x *Index) Best(k Key, q Query) (e Entry, frontSize int, ok bool) {
	x.queries.Add(1)
	x.mu.RLock()
	f := x.fronts[k]
	if f == nil {
		x.mu.RUnlock()
		return Entry{}, 0, false
	}
	e, ok = f.Best(q)
	frontSize = f.size
	x.mu.RUnlock()
	if ok {
		x.hits.Add(1)
	}
	return e, frontSize, ok
}

// Entries returns the front for key in increasing-time order, or nil
// when the key is uncovered.
func (x *Index) Entries(k Key) []Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	f := x.fronts[k]
	if f == nil {
		return nil
	}
	return f.Entries()
}

// Stats returns a snapshot of the index counters.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s := Stats{
		Fronts:   len(x.fronts),
		Inserts:  x.inserts,
		Admitted: x.admitted,
		Queries:  x.queries.Load(),
		Hits:     x.hits.Load(),
	}
	for _, f := range x.fronts {
		s.Entries += f.size
	}
	return s
}
