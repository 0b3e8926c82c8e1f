package ontology_test

import (
	"fmt"

	"osars/internal/ontology"
)

// Example builds a small aspect hierarchy and queries it.
func Example() {
	var b ontology.Builder
	phone := b.AddConcept("phone")
	screen := b.Child(phone, "screen", "display")
	resolution := b.Child(screen, "screen resolution")
	b.Child(phone, "battery")
	ont, err := b.Build()
	if err != nil {
		panic(err)
	}

	fmt.Println(ont)
	fmt.Println("depth of resolution:", ont.Depth(resolution))
	fmt.Println("screen is ancestor of resolution:", ont.IsAncestorOf(screen, resolution))

	ids, dists := ont.Ancestors(resolution)
	for i, a := range ids {
		fmt.Printf("  %s at %d\n", ont.Name(a), dists[i])
	}
	// Output:
	// Ontology(4 concepts, 3 edges, depth 2)
	// depth of resolution: 2
	// screen is ancestor of resolution: true
	//   screen resolution at 0
	//   screen at 1
	//   phone at 2
}
