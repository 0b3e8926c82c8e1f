package coverage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"osars/internal/model"
	"osars/internal/ontology"
)

// randomDAG builds a random multi-parent ontology: n concepts under a
// root, each with one random parent among the earlier concepts plus a
// few extra random edges (earlier → later keeps it acyclic).
func randomDAG(t testing.TB, rng *rand.Rand, n int) *ontology.Ontology {
	t.Helper()
	var b ontology.Builder
	ids := make([]ontology.ConceptID, 0, n+1)
	ids = append(ids, b.AddConcept("root"))
	for i := 0; i < n; i++ {
		parent := ids[rng.Intn(len(ids))]
		ids = append(ids, b.Child(parent, fmt.Sprintf("c%d", i)))
	}
	extra := rng.Intn(n + 1)
	for i := 0; i < extra; i++ {
		pi := rng.Intn(len(ids) - 1)
		ci := pi + 1 + rng.Intn(len(ids)-pi-1)
		// Duplicate edges are rejected by the builder; skip them.
		_ = b.AddEdge(ids[pi], ids[ci])
	}
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// randomItem generates reviews over the ontology's concepts with
// quantized sentiments, so the ε boundary is exercised exactly.
func randomItem(rng *rand.Rand, o *ontology.Ontology, numReviews int) *model.Item {
	item := &model.Item{ID: "fuzz", Name: "fuzz"}
	for ri := 0; ri < numReviews; ri++ {
		r := model.Review{ID: fmt.Sprintf("r%d", ri)}
		for si := 0; si < rng.Intn(4); si++ {
			s := model.Sentence{Text: fmt.Sprintf("s%d/%d", ri, si)}
			for pi := 0; pi < rng.Intn(4); pi++ {
				s.Pairs = append(s.Pairs, model.Pair{
					Concept:   ontology.ConceptID(rng.Intn(o.Len())),
					Sentiment: float64(rng.Intn(21)-10) / 10,
				})
			}
			r.Sentences = append(r.Sentences, s)
		}
		item.Reviews = append(item.Reviews, r)
	}
	return item
}

var allGranularities = []model.Granularity{
	model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
}

// requireInitGains asserts a graph's InitGains equal the initial
// greedy gains Σ_w Weight[w]·max(0, RootDist[w]−d(u,w)) recomputed
// from its forward rows.
func requireInitGains(t *testing.T, g *Graph, label string) {
	t.Helper()
	gains := g.InitGains()
	if gains == nil {
		t.Fatalf("%s: graph has no InitGains", label)
	}
	if len(gains) != g.NumCandidates {
		t.Fatalf("%s: InitGains len = %d, want %d", label, len(gains), g.NumCandidates)
	}
	for u := 0; u < g.NumCandidates; u++ {
		want := int64(0)
		for _, a := range g.CoveredRow(u) {
			if diff := g.RootDist[a.To] - a.Dist; diff > 0 {
				want += int64(diff) * int64(g.Weight[a.To])
			}
		}
		if gains[u] != want {
			t.Fatalf("%s: InitGains[%d] = %d, want %d", label, u, gains[u], want)
		}
	}
}

// prefixItem is the snapshot of item holding its first n reviews.
func prefixItem(item *model.Item, n int) *model.Item {
	return &model.Item{ID: item.ID, Name: item.Name, Reviews: item.Reviews[:n]}
}

// requireIndexMatchesBuild advances a fresh index along the given
// append schedule, comparing the graph after every step to a
// from-scratch Build of the same prefix. The first non-empty chunk is
// the index's bulk load; every later one is an incremental merge.
func requireIndexMatchesBuild(t *testing.T, m model.Metric, item *model.Item, schedule []int, label string) {
	t.Helper()
	for _, g := range allGranularities {
		idx := NewIndex(m, g)
		done := 0
		for step, chunk := range schedule {
			done += chunk
			prefix := prefixItem(item, done)
			idx.Advance(prefix)
			got := idx.Graph(prefix)
			want := Build(m, prefix, g)
			lbl := fmt.Sprintf("%s/%v/step%d(+%d)", label, g, step, chunk)
			requireGraphsEqual(t, got, want, lbl)
			requireInitGains(t, got, lbl)
			requireInitGains(t, want, lbl+"/build")
			if again := idx.Graph(prefix); again != got {
				t.Fatalf("%s: Graph not memoized between merges", lbl)
			}
		}
	}
}

// randomSchedule partitions n reviews into random append chunk sizes
// (zero-length chunks included: empty merges must be no-ops).
func randomSchedule(rng *rand.Rand, n int) []int {
	var out []int
	for left := n; left > 0; {
		c := rng.Intn(left + 1) // may be 0
		out = append(out, c)
		left -= c
	}
	out = append(out, 0)
	return out
}

// TestIndexMatchesBuildDiamond pins merge/freeze equivalence on the
// multi-parent diamond DAG with a one-review-at-a-time schedule — the
// store's steady-state append pattern.
func TestIndexMatchesBuildDiamond(t *testing.T) {
	o, ids := diamondOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	item := &model.Item{ID: "d1", Reviews: []model.Review{
		{ID: "r0", Sentences: []model.Sentence{
			{Text: "a", Pairs: []model.Pair{{Concept: ids["oled"], Sentiment: 0.9}, {Concept: ids["screen"], Sentiment: 0.7}}},
			{Text: "b", Pairs: []model.Pair{{Concept: ids["burnin"], Sentiment: -0.7}}},
		}},
		{ID: "r1", Sentences: []model.Sentence{
			{Text: "c"}, // pairless sentence: candidate that covers nothing
			{Text: "d", Pairs: []model.Pair{{Concept: ids["panel"], Sentiment: -0.9}, {Concept: ids["device"], Sentiment: 0.6}}},
		}},
		{ID: "r2"}, // pairless review
		{ID: "r3", Sentences: []model.Sentence{
			{Text: "e", Pairs: []model.Pair{{Concept: ids["burnin"], Sentiment: 0.8}, {Concept: ids["oled"], Sentiment: -0.2}}},
		}},
	}}
	schedule := []int{1, 1, 1, 1}
	requireIndexMatchesBuild(t, m, item, schedule, "diamond")

	// A one-shot bulk load, and one review loaded then the rest merged
	// at once, must equal the corpus merged review by review.
	requireIndexMatchesBuild(t, m, item, []int{4}, "diamond/oneshot")
	requireIndexMatchesBuild(t, m, item, []int{1, 3}, "diamond/load+merge")
}

// TestIndexMatchesBuildFuzz fuzzes merge/freeze byte-equivalence
// against from-scratch builds: random DAGs, random corpora, random
// append schedules, all granularities, several epsilons.
func TestIndexMatchesBuildFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1138))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		o := randomDAG(t, rng, 3+rng.Intn(15))
		eps := []float64{0.1, 0.3, 1.0}[rng.Intn(3)]
		m := model.Metric{Ont: o, Epsilon: eps}
		item := randomItem(rng, o, 1+rng.Intn(12))
		schedule := randomSchedule(rng, len(item.Reviews))
		requireIndexMatchesBuild(t, m, item, schedule,
			fmt.Sprintf("fuzz%d(eps=%.1f)", trial, eps))
	}
}

// TestIndexGraphCatchUp covers the lazy-rebuild contract of
// Index.Graph: a behind index catches up to the snapshot, an ahead
// index refuses (nil) so the caller falls back to a cold build.
func TestIndexGraphCatchUp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := randomDAG(t, rng, 8)
	m := model.Metric{Ont: o, Epsilon: 0.3}
	item := randomItem(rng, o, 6)

	idx := NewIndex(m, model.GranularitySentences)
	idx.Advance(prefixItem(item, 2))
	// Catch-up from 2 to 6 reviews happens inside Graph.
	got := idx.Graph(item)
	if got == nil {
		t.Fatal("Graph returned nil for a behind index")
	}
	requireGraphsEqual(t, got, Build(m, item, model.GranularitySentences), "catch-up")
	// Caught up: advancing to the same snapshot merges nothing.
	idx.Advance(item)
	if again := idx.Graph(item); again != got {
		t.Fatal("index merged again after catching up")
	}

	// A snapshot OLDER than the index cannot be served incrementally.
	stale := &model.Item{ID: item.ID, Reviews: item.Reviews[:3]}
	if g := idx.Graph(stale); g != nil {
		t.Fatal("Graph served a snapshot older than the index")
	}
}

// graphSnapshot deep-copies everything a graph exposes: both
// directions' rows and InitGains.
type graphSnapshot struct {
	fwd, bwd [][]Arc
	gains    []int64
	cost     float64
}

func snapshotGraph(g *Graph) graphSnapshot {
	var s graphSnapshot
	for u := 0; u < g.NumCandidates; u++ {
		s.fwd = append(s.fwd, append([]Arc{}, g.CoveredRow(u)...))
	}
	for w := range g.Pairs {
		s.bwd = append(s.bwd, append([]Arc{}, g.CoverersRow(w)...))
	}
	s.gains = append([]int64{}, g.InitGains()...)
	if g.NumCandidates > 0 {
		s.cost = g.CostOf([]int{0})
	}
	return s
}

// sharesBacking reports whether two slices overlap in memory.
func sharesBacking[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[:1][0])
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

// requireNoSharedOuter asserts a handed-out graph shares no outer slice
// with the index storage later merges write.
func requireNoSharedOuter(t *testing.T, g *Graph, x *Index, label string) {
	t.Helper()
	x.mu.Lock()
	defer x.mu.Unlock()
	if sharesBacking(g.bwd, x.bwd) || sharesBacking(g.fwd, x.fwd) || sharesBacking(g.initGains, x.gain) {
		t.Fatalf("%s: graph shares an outer slice with the index", label)
	}
}

// TestIndexFrozenGraphsImmutable checks that a handed-out graph's rows
// and InitGains are not mutated by later merges (readers may hold
// graphs across appends), at every granularity: once for a graph taken
// after incremental merges, once for the graph of a bulk load followed
// by 1-review advances, which reallocate the capacity-capped forward
// rows the bulk load produced. After those advances the index must not
// hold any row of the bulk-load graph either, or the graph's flat
// blocks would outlive it.
func TestIndexFrozenGraphsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	o := randomDAG(t, rng, 10)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	item := randomItem(rng, o, 12)

	for _, g := range allGranularities {
		for _, sc := range []struct {
			name   string
			before []int // advances up to the held graph
			after  []int // advances while it is held
			bulk   bool  // the held graph is the bulk load's
		}{
			{"merged", []int{2, 4}, []int{8, 12}, false},
			{"bulk", []int{6}, []int{7, 8, 9, 10, 11, 12}, true},
		} {
			label := fmt.Sprintf("%v/%s", g, sc.name)
			idx := NewIndex(m, g)
			for _, n := range sc.before {
				idx.Advance(prefixItem(item, n))
			}
			snap := idx.Graph(prefixItem(item, sc.before[len(sc.before)-1]))
			before := snapshotGraph(snap)

			for _, n := range sc.after {
				idx.Advance(prefixItem(item, n))
				requireNoSharedOuter(t, snap, idx, label)
				requireNoSharedOuter(t, idx.Graph(prefixItem(item, n)), idx, label)
			}
			if got := snapshotGraph(snap); !reflect.DeepEqual(got, before) {
				t.Fatalf("%s: held graph changed after later merges", label)
			}
			requireGraphsEqual(t, snap, Build(m, prefixItem(item, sc.before[len(sc.before)-1]), g), label)
			if sc.bulk {
				for u := range snap.fwd {
					if sharesBacking(snap.fwd[u], idx.fwd[u]) {
						t.Fatalf("%s: index still holds forward row %d of the bulk-load graph", label, u)
					}
				}
				for w := range snap.bwd {
					if sharesBacking(snap.bwd[w], idx.bwd[w]) {
						t.Fatalf("%s: index still holds backward row %d of the bulk-load graph", label, w)
					}
				}
			}
		}
	}
}
