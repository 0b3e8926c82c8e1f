package ontology

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildDiamond constructs:
//
//	  root
//	 /    \
//	a      b
//	 \    /
//	  ab        (two parents: a DAG, not a tree)
//	  |
//	  leaf
func buildDiamond(t *testing.T) (*Ontology, map[string]ConceptID) {
	t.Helper()
	var b Builder
	ids := map[string]ConceptID{}
	ids["root"] = b.AddConcept("root")
	ids["a"] = b.Child(ids["root"], "a")
	ids["b"] = b.Child(ids["root"], "b")
	ids["ab"] = b.Child(ids["a"], "ab")
	if err := b.AddEdge(ids["b"], ids["ab"]); err != nil {
		t.Fatal(err)
	}
	ids["leaf"] = b.Child(ids["ab"], "leaf")
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return o, ids
}

func TestBuildDiamond(t *testing.T) {
	o, ids := buildDiamond(t)
	if o.Root() != ids["root"] {
		t.Fatalf("Root = %d, want %d", o.Root(), ids["root"])
	}
	if o.Len() != 5 {
		t.Fatalf("Len = %d, want 5", o.Len())
	}
	if o.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", o.NumEdges())
	}
	wantDepth := map[string]int{"root": 0, "a": 1, "b": 1, "ab": 2, "leaf": 3}
	for name, d := range wantDepth {
		if got := o.Depth(ids[name]); got != d {
			t.Errorf("Depth(%s) = %d, want %d", name, got, d)
		}
	}
	if o.MaxDepth() != 3 {
		t.Fatalf("MaxDepth = %d, want 3", o.MaxDepth())
	}
}

func TestAncestry(t *testing.T) {
	o, ids := buildDiamond(t)
	cases := []struct {
		anc, desc string
		dist      int
	}{
		{"root", "leaf", 3},
		{"root", "root", 0},
		{"a", "leaf", 2},
		{"b", "leaf", 2},
		{"ab", "leaf", 1},
		{"leaf", "leaf", 0},
		{"a", "b", -1},    // siblings
		{"leaf", "a", -1}, // wrong direction
	}
	for _, c := range cases {
		if got := o.UpDistance(ids[c.desc], ids[c.anc]); got != c.dist {
			t.Errorf("UpDistance(%s, %s) = %d, want %d", c.desc, c.anc, got, c.dist)
		}
		want := c.dist >= 0
		if got := o.IsAncestorOf(ids[c.anc], ids[c.desc]); got != want {
			t.Errorf("IsAncestorOf(%s, %s) = %v, want %v", c.anc, c.desc, got, want)
		}
	}
}

func TestAncestorWalkerShortestDistances(t *testing.T) {
	o, ids := buildDiamond(t)
	got := map[ConceptID]int{}
	w := newAncestorWalker(o)
	w.walk(ids["leaf"], func(a ConceptID, d int) bool {
		got[a] = d
		return true
	})
	want := map[ConceptID]int{
		ids["leaf"]: 0, ids["ab"]: 1, ids["a"]: 2, ids["b"]: 2, ids["root"]: 3,
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d ancestors, want %d: %v", len(got), len(want), got)
	}
	for a, d := range want {
		if got[a] != d {
			t.Errorf("ancestor %s: dist %d, want %d", o.Name(a), got[a], d)
		}
	}
}

func TestAncestorWalkerEarlyStop(t *testing.T) {
	o, ids := buildDiamond(t)
	n := 0
	w := newAncestorWalker(o)
	w.walk(ids["leaf"], func(ConceptID, int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("visited %d, want early stop at 2", n)
	}
}

func TestAncestorWalkerReuse(t *testing.T) {
	o, ids := buildDiamond(t)
	w := newAncestorWalker(o)
	for i := 0; i < 10; i++ {
		count := 0
		w.walk(ids["leaf"], func(ConceptID, int) bool { count++; return true })
		if count != 5 {
			t.Fatalf("walk %d visited %d, want 5", i, count)
		}
		count = 0
		w.walk(ids["a"], func(ConceptID, int) bool { count++; return true })
		if count != 2 {
			t.Fatalf("walk %d from a visited %d, want 2", i, count)
		}
	}
}

func TestCycleRejected(t *testing.T) {
	var b Builder
	r := b.AddConcept("r")
	x := b.Child(r, "x")
	y := b.Child(x, "y")
	if err := b.AddEdge(y, x); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a cyclic graph")
	}
}

func TestMultipleRootsRejected(t *testing.T) {
	var b Builder
	b.AddConcept("r1")
	b.AddConcept("r2")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted two roots")
	}
}

func TestEmptyRejected(t *testing.T) {
	var b Builder
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted empty graph")
	}
}

func TestNoRootRejected(t *testing.T) {
	var b Builder
	x := b.AddConcept("x")
	y := b.AddConcept("y")
	if err := b.AddEdge(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(y, x); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted rootless 2-cycle")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	var b Builder
	x := b.AddConcept("x")
	if err := b.AddEdge(x, x); err == nil {
		t.Fatal("AddEdge accepted a self-loop")
	}
}

func TestDuplicateConceptMergesSynonyms(t *testing.T) {
	var b Builder
	a := b.AddConcept("Screen", "display")
	a2 := b.AddConcept("screen", "monitor", "display")
	if a != a2 {
		t.Fatalf("duplicate name produced distinct IDs %d, %d", a, a2)
	}
	b2 := b.AddConcept("root")
	if err := b.AddEdge(b2, a); err != nil {
		t.Fatal(err)
	}
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	syn := o.Synonyms(a)
	if len(syn) != 2 {
		t.Fatalf("synonyms = %v, want [display monitor]", syn)
	}
}

func TestLookup(t *testing.T) {
	o, ids := buildDiamond(t)
	if id, ok := o.Lookup("  AB "); !ok || id != ids["ab"] {
		t.Fatalf("Lookup(AB) = %d,%v", id, ok)
	}
	if _, ok := o.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}
}

func TestDescendants(t *testing.T) {
	o, ids := buildDiamond(t)
	d := o.Descendants(ids["a"])
	want := map[ConceptID]bool{ids["a"]: true, ids["ab"]: true, ids["leaf"]: true}
	if len(d) != len(want) {
		t.Fatalf("Descendants(a) = %v, want 3 nodes", d)
	}
	for _, id := range d {
		if !want[id] {
			t.Errorf("unexpected descendant %s", o.Name(id))
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	o, ids := buildDiamond(t)
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back Ontology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != o.Len() || back.NumEdges() != o.NumEdges() || back.MaxDepth() != o.MaxDepth() {
		t.Fatalf("round trip mismatch: %v vs %v", &back, o)
	}
	for name, id := range ids {
		got, ok := back.Lookup(name)
		if !ok || got != id {
			t.Errorf("Lookup(%s) after round trip = %d,%v want %d", name, got, ok, id)
		}
		if back.Depth(got) != o.Depth(id) {
			t.Errorf("Depth(%s) after round trip = %d, want %d", name, back.Depth(got), o.Depth(id))
		}
	}
}

func TestAvgAncestors(t *testing.T) {
	o, _ := buildDiamond(t)
	// strict ancestors: root 0, a 1, b 1, ab 3, leaf 4 → avg 9/5
	if got, want := o.AvgAncestors(), 9.0/5.0; got != want {
		t.Fatalf("AvgAncestors = %v, want %v", got, want)
	}
}

// randomDAG builds a random rooted DAG where node i>0 picks parents
// among nodes < i, guaranteeing acyclicity and a single root.
func randomDAG(rng *rand.Rand, n int) (*Ontology, error) {
	var b Builder
	ids := make([]ConceptID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddConcept(string(rune('A'+i%26)) + "-" + string(rune('0'+i/26%10)) + "-" + itoa(i))
	}
	for i := 1; i < n; i++ {
		nParents := 1 + rng.Intn(2)
		for j := 0; j < nParents; j++ {
			if err := b.AddEdge(ids[rng.Intn(i)], ids[i]); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// TestQuickWalkerMatchesUpDistance checks on random DAGs that the
// walker's BFS distances agree with the independent UpDistance query.
func TestQuickWalkerMatchesUpDistance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		o, err := randomDAG(rng, n)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		w := newAncestorWalker(o)
		for c := ConceptID(0); int(c) < o.Len(); c++ {
			seen := map[ConceptID]int{}
			w.walk(c, func(a ConceptID, d int) bool { seen[a] = d; return true })
			for a, d := range seen {
				if got := o.UpDistance(c, a); got != d {
					t.Logf("UpDistance(%d,%d) = %d, walker %d", c, a, got, d)
					return false
				}
			}
			// Depth must equal the walker's distance to the root.
			if seen[o.Root()] != o.Depth(c) {
				t.Logf("depth mismatch for %d", c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDepthsMonotone checks that every child is exactly one deeper
// than its shallowest parent (BFS depth property).
func TestQuickDepthsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o, err := randomDAG(rng, 2+rng.Intn(60))
		if err != nil {
			return false
		}
		for c := ConceptID(0); int(c) < o.Len(); c++ {
			if c == o.Root() {
				continue
			}
			min := 1 << 30
			for _, p := range o.Parents(c) {
				if o.Depth(p) < min {
					min = o.Depth(p)
				}
			}
			if o.Depth(c) != min+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeepChainStress guards against recursion/perf pathologies on a
// 5000-deep chain ontology: build, walk and query must all work.
func TestDeepChainStress(t *testing.T) {
	var b Builder
	prev := b.AddConcept("c0")
	root := prev
	const depth = 5000
	for i := 1; i <= depth; i++ {
		prev = b.Child(prev, "c"+itoa(i))
	}
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxDepth() != depth {
		t.Fatalf("MaxDepth = %d, want %d", o.MaxDepth(), depth)
	}
	leaf := prev
	if o.Depth(leaf) != depth {
		t.Fatalf("Depth(leaf) = %d", o.Depth(leaf))
	}
	if got := o.UpDistance(leaf, root); got != depth {
		t.Fatalf("UpDistance = %d", got)
	}
	w := newAncestorWalker(o)
	count := 0
	w.walk(leaf, func(ConceptID, int) bool { count++; return true })
	if count != depth+1 {
		t.Fatalf("walk visited %d, want %d", count, depth+1)
	}
	if len(o.Descendants(root)) != depth+1 {
		t.Fatal("Descendants wrong on chain")
	}
}
