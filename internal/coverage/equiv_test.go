package coverage

import (
	"math/rand"
	"reflect"
	"testing"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/sentiment"
)

// graphEdges flattens a graph's forward adjacency into a comparable
// form: for every candidate, the (pair, dist) edge list in row order.
func graphEdges(t *testing.T, g *Graph) [][][2]int {
	t.Helper()
	out := make([][][2]int, g.NumCandidates)
	for u := 0; u < g.NumCandidates; u++ {
		for _, a := range g.CoveredRow(u) {
			out[u] = append(out[u], [2]int{int(a.To), int(a.Dist)})
		}
	}
	return out
}

// requireGraphsEqual asserts two graphs are identical: same
// candidates, pairs, weights, edges, distances and initial gains.
func requireGraphsEqual(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if got.NumCandidates != want.NumCandidates {
		t.Fatalf("%s: NumCandidates = %d, want %d", label, got.NumCandidates, want.NumCandidates)
	}
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Fatalf("%s: Pairs differ", label)
	}
	if !reflect.DeepEqual(got.Weight, want.Weight) {
		t.Fatalf("%s: Weight differs:\n got %v\nwant %v", label, got.Weight, want.Weight)
	}
	if !reflect.DeepEqual(got.InitGains(), want.InitGains()) {
		t.Fatalf("%s: InitGains differ:\n got %v\nwant %v", label, got.InitGains(), want.InitGains())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: NumEdges = %d, want %d", label, got.NumEdges(), want.NumEdges())
	}
	ge, we := graphEdges(t, got), graphEdges(t, want)
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: forward edges differ:\n got %v\nwant %v", label, ge, we)
	}
	// Backward rows must mirror the same edge set.
	for w := range got.Pairs {
		if !reflect.DeepEqual(got.CoverersRow(w), want.CoverersRow(w)) {
			t.Fatalf("%s: coverers of pair %d differ", label, w)
		}
	}
	// And both must price an identical selection identically. (An empty
	// candidate set — e.g. a zero-review prefix in the incremental-index
	// fuzz — has no selection to price.)
	if got.NumCandidates > 0 {
		sel := []int{0}
		if got.NumCandidates > 2 {
			sel = append(sel, got.NumCandidates-1)
		}
		if g, w := got.CostOf(sel), want.CostOf(sel); g != w {
			t.Fatalf("%s: CostOf(%v) = %v, want %v", label, sel, g, w)
		}
	}
}

// diamondOntology is a multi-parent DAG: "oled" has two parents that
// are themselves siblings, so its ancestor set has two distinct paths
// to the root and the closure's shortest-distance dedup is exercised.
//
//	device ─┬─ screen ──┬─ oled
//	        ├─ display ─┘   │
//	        └─ panel ───────┘  (panel → oled too: 3 parents total)
func diamondOntology(t testing.TB) (*ontology.Ontology, map[string]ontology.ConceptID) {
	t.Helper()
	var b ontology.Builder
	ids := map[string]ontology.ConceptID{}
	ids["device"] = b.AddConcept("device")
	ids["screen"] = b.Child(ids["device"], "screen")
	ids["display"] = b.Child(ids["device"], "display")
	ids["panel"] = b.Child(ids["device"], "panel")
	ids["oled"] = b.Child(ids["screen"], "oled")
	if err := b.AddEdge(ids["display"], ids["oled"]); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(ids["panel"], ids["oled"]); err != nil {
		t.Fatal(err)
	}
	ids["burnin"] = b.Child(ids["oled"], "burn-in")
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return o, ids
}

// TestClosureBuilderMatchesWalkerMultiParent pins the closure-based
// builder against the walker reference on a DAG where concepts
// have several parents and therefore several root paths.
func TestClosureBuilderMatchesWalkerMultiParent(t *testing.T) {
	o, ids := diamondOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	P := []model.Pair{
		{Concept: ids["oled"], Sentiment: 0.9},
		{Concept: ids["burnin"], Sentiment: 0.8},
		{Concept: ids["screen"], Sentiment: 0.7},
		{Concept: ids["panel"], Sentiment: -0.9},
		{Concept: ids["burnin"], Sentiment: -0.7},
		{Concept: ids["device"], Sentiment: 0.6},
	}
	requireGraphsEqual(t, BuildPairs(m, P), BuildPairsWalker(m, P), "pairs/diamond")

	groups := [][]model.Pair{P[:2], P[2:4], P[4:]}
	requireGraphsEqual(t, BuildGroups(m, groups, P), BuildGroupsWalker(m, groups, P), "groups/diamond")
}

// TestClosureBuilderMatchesWalkerGranularities checks closure/walker
// equality on a realistic generated corpus at all three granularities.
func TestClosureBuilderMatchesWalkerGranularities(t *testing.T) {
	cfg := dataset.DoctorConfig(7)
	cfg.NumItems = 2
	cfg.TotalReviews = 40
	cfg.MinReviews = 15
	cfg.MaxReviews = 25
	c := dataset.Generate(cfg)
	pipe := extract.NewPipeline(extract.NewMatcher(c.Ont), sentiment.Lexicon{})
	m := model.Metric{Ont: c.Ont, Epsilon: 0.5}
	for _, it := range c.Items {
		var raws []extract.RawReview
		for _, r := range it.Reviews {
			raws = append(raws, extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating})
		}
		item := pipe.AnnotateItem(it.ID, it.Name, raws)
		for _, g := range []model.Granularity{
			model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
		} {
			got := Build(m, item, g)
			var want *Graph
			switch g {
			case model.GranularityPairs:
				want = BuildPairsWalker(m, item.Pairs())
			case model.GranularitySentences:
				groups, pairs := SentenceGroups(item)
				want = BuildGroupsWalker(m, groups, pairs)
			case model.GranularityReviews:
				groups, pairs := ReviewGroups(item)
				want = BuildGroupsWalker(m, groups, pairs)
			}
			requireGraphsEqual(t, got, want, it.ID+"/"+g.String())
		}
	}
}

// TestClosureBuilderMatchesWalkerRandom fuzzes random pair sets on the
// diamond DAG across epsilons, including ε values that put same-concept
// pairs in and out of each other's coverage.
func TestClosureBuilderMatchesWalkerRandom(t *testing.T) {
	o, ids := diamondOntology(t)
	concepts := make([]ontology.ConceptID, 0, len(ids))
	for _, id := range ids {
		concepts = append(concepts, id)
	}
	rng := rand.New(rand.NewSource(42))
	for _, eps := range []float64{0.1, 0.5, 1.0} {
		m := model.Metric{Ont: o, Epsilon: eps}
		for trial := 0; trial < 25; trial++ {
			n := 1 + rng.Intn(12)
			P := make([]model.Pair, n)
			for i := range P {
				P[i] = model.Pair{
					Concept:   concepts[rng.Intn(len(concepts))],
					Sentiment: float64(rng.Intn(21)-10) / 10,
				}
			}
			requireGraphsEqual(t, BuildPairs(m, P), BuildPairsWalker(m, P), "random")
		}
	}
}
