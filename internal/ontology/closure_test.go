package ontology

import (
	"math/rand"
	"testing"
)

// walkPairs collects an ancestorWalker walk as (id, dist) pairs.
func walkPairs(o *Ontology, c ConceptID) (ids []ConceptID, dists []int32) {
	w := newAncestorWalker(o)
	w.walk(c, func(anc ConceptID, dist int) bool {
		ids = append(ids, anc)
		dists = append(dists, int32(dist))
		return true
	})
	return ids, dists
}

// requireClosureMatchesWalker asserts that the precomputed closure row
// of every concept equals a fresh ancestorWalker BFS: same ancestors,
// same order, same shortest up-distances.
func requireClosureMatchesWalker(t *testing.T, o *Ontology) {
	t.Helper()
	total := 0
	for c := ConceptID(0); int(c) < o.Len(); c++ {
		wantIDs, wantDists := walkPairs(o, c)
		gotIDs, gotDists := o.Ancestors(c)
		if len(gotIDs) != len(wantIDs) || len(gotDists) != len(wantDists) {
			t.Fatalf("concept %d (%s): closure row has %d entries, walker %d",
				c, o.Name(c), len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] || gotDists[i] != wantDists[i] {
				t.Fatalf("concept %d (%s), entry %d: closure (%d,%d) != walker (%d,%d)",
					c, o.Name(c), i, gotIDs[i], gotDists[i], wantIDs[i], wantDists[i])
			}
		}
		// NumAncestors counts strict ancestors: the row minus self.
		if n := o.NumAncestors(c); n != len(wantIDs)-1 {
			t.Fatalf("NumAncestors(%d) = %d, want %d", c, n, len(wantIDs)-1)
		}
		if gotIDs[0] != c || gotDists[0] != 0 {
			t.Fatalf("concept %d: closure row must start with (self, 0), got (%d,%d)",
				c, gotIDs[0], gotDists[0])
		}
		for i := 1; i < len(gotDists); i++ {
			if gotDists[i] < gotDists[i-1] {
				t.Fatalf("concept %d: closure distances not non-decreasing: %v", c, gotDists)
			}
		}
		total += len(gotIDs)
	}
	if total != o.ClosureSize() {
		t.Fatalf("ClosureSize = %d, want %d", o.ClosureSize(), total)
	}
}

func TestClosureMatchesWalkerDiamond(t *testing.T) {
	o, _ := buildDiamond(t)
	requireClosureMatchesWalker(t, o)
}

// TestClosureMatchesWalkerRandomDAG fuzzes random layered DAGs where
// every non-root node draws 1–3 parents from earlier layers, so
// multi-parent shortest-path dedup is hit constantly.
func TestClosureMatchesWalkerRandomDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		var b Builder
		n := 2 + rng.Intn(40)
		ids := make([]ConceptID, n)
		ids[0] = b.AddConcept("c0")
		for i := 1; i < n; i++ {
			// First parent keeps the DAG rooted and acyclic (edges only
			// from lower-numbered nodes).
			p := rng.Intn(i)
			ids[i] = b.Child(ids[p], nodeName(i))
			for extra := rng.Intn(3); extra > 0; extra-- {
				q := rng.Intn(i)
				if q != p {
					if err := b.AddEdge(ids[q], ids[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		o, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		requireClosureMatchesWalker(t, o)
	}
}

func nodeName(i int) string {
	return "c" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestUpDistanceMatchesWalker cross-checks the closure-backed
// UpDistance against walker-derived distances on the diamond.
func TestUpDistanceMatchesWalker(t *testing.T) {
	o, ids := buildDiamond(t)
	for _, c := range ids {
		seen := map[ConceptID]int{}
		w := newAncestorWalker(o)
		w.walk(c, func(anc ConceptID, dist int) bool {
			seen[anc] = dist
			return true
		})
		for _, a := range ids {
			want, ok := seen[a]
			if !ok {
				want = -1
			}
			if got := o.UpDistance(c, a); got != want {
				t.Fatalf("UpDistance(%s, %s) = %d, want %d", o.Name(c), o.Name(a), got, want)
			}
		}
	}
}
