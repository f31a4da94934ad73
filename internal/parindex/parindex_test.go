package parindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"energyprop/internal/pareto"
)

// entriesOf converts a point slice for feeding the incremental front.
func entriesOf(pts []pareto.Point) []Entry {
	out := make([]Entry, len(pts))
	for i, p := range pts {
		out[i] = Entry{Config: p.Label, Label: p.Label, Time: p.Time, Energy: p.Energy}
	}
	return out
}

// frontOf runs the batch reference implementation and converts.
func frontOf(pts []pareto.Point) []Entry {
	return entriesOf(pareto.Front(pts))
}

// feed inserts every point in order and returns the resulting entries.
func feed(pts []pareto.Point) []Entry {
	var f Front
	for _, e := range entriesOf(pts) {
		f.Insert(e)
	}
	return f.Entries()
}

func randomPoints(rng *rand.Rand, n, grid int) []pareto.Point {
	pts := make([]pareto.Point, n)
	for i := range pts {
		t := float64(1+rng.Intn(grid)) / 4
		e := float64(1+rng.Intn(grid)) * 2
		pts[i] = pareto.Point{Label: fmt.Sprintf("p%d", i), Time: t, Energy: e}
	}
	return pts
}

// TestFrontMatchesBatchFront is the core property: for a random point
// set fed in a random order, the incremental front equals batch
// pareto.Front over the same sequence — including which representative
// survives a duplicate collapse (first encountered).
func TestFrontMatchesBatchFront(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		grid := 1 + rng.Intn(12) // small grid forces duplicates and ties
		pts := randomPoints(rng, n, grid)
		got, want := feed(pts), frontOf(pts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: incremental front diverged\n got: %v\nwant: %v\npoints: %v", trial, got, want, pts)
		}
	}
}

// TestFrontSetInvariantUnderShuffles checks that the surviving
// coordinate set (ignoring duplicate-tie labels) is order-independent:
// every shuffle of the same multiset yields the same front coordinates.
func TestFrontSetInvariantUnderShuffles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		pts := randomPoints(rng, 40, 10)
		ref := feed(pts)
		coords := func(es []Entry) [][2]float64 {
			out := make([][2]float64, len(es))
			for i, e := range es {
				out[i] = [2]float64{e.Time, e.Energy}
			}
			return out
		}
		want := coords(ref)
		for s := 0; s < 5; s++ {
			shuffled := append([]pareto.Point(nil), pts...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := coords(feed(shuffled)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d shuffle %d: front coordinates depend on order\n got %v\nwant %v", trial, s, got, want)
			}
			// The shuffled feed must also match the batch front of the
			// shuffled sequence exactly, labels included.
			if got, want := feed(shuffled), frontOf(shuffled); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d shuffle %d: diverged from batch front", trial, s)
			}
		}
	}
}

// TestFrontInvariant checks the structural invariant after arbitrary
// inserts: time strictly increasing, energy strictly decreasing.
func TestFrontInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var f Front
	for i := 0; i < 2000; i++ {
		f.Insert(Entry{
			Config: fmt.Sprintf("c%d", i),
			Time:   float64(1+rng.Intn(200)) / 8,
			Energy: float64(1 + rng.Intn(200)),
		})
	}
	es := f.Entries()
	if len(es) != f.Len() {
		t.Fatalf("Len()=%d but Entries() has %d", f.Len(), len(es))
	}
	for i := 1; i < len(es); i++ {
		if !(es[i].Time > es[i-1].Time && es[i].Energy < es[i-1].Energy) {
			t.Fatalf("invariant violated at %d: %v -> %v", i, es[i-1], es[i])
		}
	}
}

func TestInsertReturnValue(t *testing.T) {
	var f Front
	if !f.Insert(Entry{Config: "a", Time: 2, Energy: 10}) {
		t.Fatal("first insert rejected")
	}
	if f.Insert(Entry{Config: "b", Time: 3, Energy: 10}) {
		t.Fatal("dominated point admitted")
	}
	if f.Insert(Entry{Config: "dup", Time: 2, Energy: 10}) {
		t.Fatal("exact duplicate admitted")
	}
	if got := f.Entries()[0].Config; got != "a" {
		t.Fatalf("duplicate displaced incumbent: %q", got)
	}
	if !f.Insert(Entry{Config: "c", Time: 1, Energy: 5}) {
		t.Fatal("dominating point rejected")
	}
	if f.Len() != 1 {
		t.Fatalf("dominating insert should evict: len=%d", f.Len())
	}
}

func TestBestQueries(t *testing.T) {
	var f Front
	// Classic staircase: (1, 100) (2, 60) (4, 30) (8, 10).
	for i, p := range [][2]float64{{1, 100}, {2, 60}, {4, 30}, {8, 10}} {
		f.Insert(Entry{Config: fmt.Sprintf("c%d", i), Time: p[0], Energy: p[1]})
	}
	cases := []struct {
		q      Query
		want   string
		wantOK bool
	}{
		{Query{MaxTime: 3}, "c1", true},    // min energy with t<=3
		{Query{MaxTime: 2}, "c1", true},    // boundary inclusive
		{Query{MaxTime: 0.5}, "", false},   // infeasible
		{Query{MaxEnergy: 35}, "c2", true}, // min time with E<=35
		{Query{MaxEnergy: 10}, "c3", true}, // boundary inclusive
		{Query{MaxEnergy: 5}, "", false},   // infeasible
		{Query{MaxTime: 5, MaxEnergy: 40}, "c2", true},
		{Query{MaxTime: 5, MaxEnergy: 20}, "", false}, // floor too hot
		{Query{}, "", false},                          // no constraint
	}
	for _, tc := range cases {
		e, ok := f.Best(tc.q)
		if ok != tc.wantOK || (ok && e.Config != tc.want) {
			t.Errorf("Best(%+v) = %q,%v want %q,%v", tc.q, e.Config, ok, tc.want, tc.wantOK)
		}
	}
}

// TestBestAgainstLinearScan cross-checks the treap descents against a
// brute-force scan on random fronts and random constraints.
func TestBestAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		var f Front
		for i := 0; i < 1+rng.Intn(50); i++ {
			f.Insert(Entry{
				Config: fmt.Sprintf("c%d", i),
				Time:   float64(1+rng.Intn(100)) / 4,
				Energy: float64(1 + rng.Intn(100)),
			})
		}
		es := f.Entries()
		for q := 0; q < 20; q++ {
			query := Query{}
			if rng.Intn(2) == 0 {
				query.MaxTime = float64(rng.Intn(120)) / 4
			}
			if query.MaxTime == 0 || rng.Intn(2) == 0 {
				query.MaxEnergy = float64(rng.Intn(120))
			}
			var want Entry
			wantOK := false
			for _, e := range es { // entries sorted by time: first feasible is min-time...
				if query.MaxTime > 0 && e.Time > query.MaxTime {
					continue
				}
				if query.MaxEnergy > 0 && e.Energy > query.MaxEnergy {
					continue
				}
				// objective: MaxTime set -> min energy; else min time.
				if !wantOK {
					want, wantOK = e, true
					continue
				}
				if query.MaxTime > 0 && e.Energy < want.Energy {
					want = e
				}
			}
			got, ok := f.Best(query)
			if query.MaxTime <= 0 && query.MaxEnergy <= 0 {
				wantOK = false
			}
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("trial %d: Best(%+v) = %+v,%v want %+v,%v\nfront: %v", trial, query, got, ok, want, wantOK, es)
			}
		}
	}
}

func TestIndexKeysAndStats(t *testing.T) {
	x := NewIndex()
	k1 := Key{Device: "p100", App: "dgemm", N: 1024, Products: 1}
	k2 := Key{Device: "haswell", App: "dgemm", N: 96, Products: 1}
	x.Insert(k1, Entry{Config: "a", Time: 1, Energy: 10})
	x.Insert(k1, Entry{Config: "b", Time: 2, Energy: 20}) // dominated
	x.Insert(k2, Entry{Config: "c", Time: 1, Energy: 1})

	if _, n, ok := x.Best(k1, Query{MaxTime: 5}); !ok || n != 1 {
		t.Fatalf("Best(k1) = ok=%v front=%d", ok, n)
	}
	if _, n, ok := x.Best(Key{Device: "nope"}, Query{MaxTime: 5}); ok || n != 0 {
		t.Fatalf("uncovered key: ok=%v front=%d", ok, n)
	}
	if _, n, ok := x.Best(k1, Query{MaxEnergy: 0.5}); ok || n != 1 {
		t.Fatalf("infeasible on covered key: ok=%v front=%d", ok, n)
	}

	keys := x.Keys()
	want := []Key{k2, k1} // sorted by device name
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Keys() = %v want %v", keys, want)
	}

	s := x.Stats()
	if s.Fronts != 2 || s.Entries != 2 || s.Inserts != 3 || s.Admitted != 2 || s.Queries != 3 || s.Hits != 1 {
		t.Fatalf("Stats() = %+v", s)
	}
}

// TestIndexConcurrency hammers the index from concurrent inserters and
// queriers; correctness is checked by the race detector plus a final
// front-invariant sweep.
func TestIndexConcurrency(t *testing.T) {
	x := NewIndex()
	k := Key{Device: "p100", App: "dgemm", N: 512, Products: 1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					x.Insert(k, Entry{
						Config: fmt.Sprintf("g%d-%d", g, i),
						Time:   float64(1+rng.Intn(64)) / 2,
						Energy: float64(1 + rng.Intn(64)),
					})
				} else {
					x.Best(k, Query{MaxTime: float64(1 + rng.Intn(40))})
					x.Entries(k)
				}
			}
		}(g)
	}
	wg.Wait()
	es := x.Entries(k)
	for i := 1; i < len(es); i++ {
		if !(es[i].Time > es[i-1].Time && es[i].Energy < es[i-1].Energy) {
			t.Fatalf("invariant violated after concurrent load at %d: %v -> %v", i, es[i-1], es[i])
		}
	}
}

func BenchmarkFrontInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	entries := make([]Entry, 4096)
	for i := range entries {
		entries[i] = Entry{
			Config: fmt.Sprintf("c%d", i),
			Time:   float64(1+rng.Intn(1<<20)) / 1024,
			Energy: float64(1 + rng.Intn(1<<20)),
		}
	}
	b.ResetTimer()
	var f Front
	for i := 0; i < b.N; i++ {
		f.Insert(entries[i%len(entries)])
	}
}

// Keys returns the indexed keys in deterministic (sorted) order.
func (x *Index) Keys() []Key {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]Key, 0, len(x.fronts))
	for k := range x.fronts {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.App != b.App {
			return a.App < b.App
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return a.Products < b.Products
	})
	return out
}
