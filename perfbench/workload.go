package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"osars/internal/dataset"
	"osars/internal/ontology"
	"osars/internal/server"
)

// Every summary the benchmark asks for uses the service's defaults
// for a review page: five sentences, greedy selection.
const (
	summaryK      = 5
	summaryGran   = "sentences"
	summaryMethod = "greedy"
)

// kind is a request kind. Each kind gets its own latency distribution:
// mixing a 20 µs cache hit with a millisecond index merge in one
// percentile makes the percentile depend on the mix, not on the code.
type kind uint8

const (
	kindSolve  kind = iota // POST /v1/summarize: annotate + build + greedy per request
	kindMiss               // GET summary that must run a solve ("cached": false)
	kindHit                // GET summary answered from the cache ("cached": true)
	kindAppend             // PUT one or more reviews
	numKinds
)

func (k kind) String() string {
	return [...]string{"solve", "miss", "hit", "append"}[k]
}

// op is one request of a schedule, fully encoded before timing starts.
type op struct {
	kind   kind
	item   int    // index into plan.items
	method string // HTTP method
	path   string // URL path and query
	body   []byte // pre-encoded JSON body (POST, PUT)
	// nAfter is the num_reviews a PUT must acknowledge.
	nAfter int
}

// plan is everything one workload needs, generated from the seed
// before the program is started. Generating and encoding it is the
// benchmark's own work and is not part of setup_s.
type plan struct {
	name    string
	ont     *ontology.Ontology
	items   []dataset.RawItem
	preload []op   // untimed PUTs that fill the store (stateful workloads)
	warm    []op   // untimed warm-up requests after the preload
	clients [][]op // one episode's timed schedule, one list per client
	// final is each item's review count at the end of an episode.
	final []int
	// timed is the request kind the end-to-end latency metrics report.
	timed kind
	// stateless workloads answer from the request alone; the others
	// read back every item after the timed phase.
	stateless bool
	durable   bool
	// want is the expected Definition-2 cost of each stateless item,
	// computed by the library directly.
	want []float64
}

// spec shapes one workload's corpus and schedule.
type spec struct {
	name string
	// domain is "doctor" or "phone"; the ontology is the one
	// osars-serve -domain builds, so the seed only varies the reviews.
	domain string
	timed  kind
	build  func(p *plan, rng *rand.Rand)
}

// The workloads stress different layers, so that a change to one layer
// has a workload that exercises it and one that predicts no change.
var specs = []spec{
	// The cold path: decode, annotation, coverage.Build, Greedy and
	// encode do all the work; store, index, cache and WAL are bypassed.
	{name: "stateless-doctor", domain: "doctor", timed: kindSolve, build: buildStateless},
	// The incremental solve: each step appends one review to a
	// ~1k-review item, then reads its summary twice (index catch-up and
	// GreedyWarm, then a cache hit). Writes and reads share one store.
	{name: "append-summarize-phone", domain: "phone", timed: kindMiss, build: buildAppendSummarize},
	// The append itself on an item whose index exists: one review's
	// annotation, the copy-on-write item and Index.Advance.
	{name: "indexed-append-phone", domain: "phone", timed: kindAppend, build: buildIndexedAppend},
	// Page renders of unchanged items: routing, cache lookup and
	// encoding; nothing is solved, annotated or written.
	{name: "cached-read-phone", domain: "phone", timed: kindHit, build: buildCachedRead},
	// The write path: WAL record encode, group commit, WAL write, apply
	// and background snapshots, then a restart. No index exists and
	// nothing is solved while timed.
	{name: "durable-ingest-doctor", domain: "doctor", timed: kindAppend, build: buildDurableIngest},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Corpus shapes. Items of one workload have equal review counts, so a
// latency tail belongs to one population instead of to the largest item
// of a skewed mix: doctors have Table 1's mean of 69 reviews (~4.9
// sentences each), phones ~1k reviews (~3.8 sentences each).
const (
	statelessItems   = 40
	statelessPasses  = 25 // passes over the items per episode
	phoneItems       = 8
	phonePreload     = 1000
	summarizeSteps   = 40 // append-summarize steps per item per episode
	appendSteps      = 60 // indexed appends per item per episode
	cachedReads      = 24000
	durableItems     = 100
	durableAppends   = 120 // appends per item per episode
	doctorMean       = 69
	durableClients   = 2
	verifySampleSize = 2
)

// newPlan generates the workload's inputs from the seed.
func newPlan(s spec, seed int64) *plan {
	p := &plan{name: s.name, timed: s.timed}
	switch s.domain {
	case "doctor":
		p.ont = dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	default:
		p.ont = dataset.CellPhoneOntology()
	}
	s.build(p, rand.New(rand.NewSource(seed)))
	return p
}

// poolSeed fixes the generator's own draws: which aspects are popular
// and how good each item is. The workload seed then picks which of an
// item's reviews arrive, and in which order, so a seed changes the
// reviews but not the kind of corpus they come from.
const poolSeed = 1

// corpus draws n items of exactly size reviews each, with the domain's
// Table-1 sentence and aspect statistics: each item's reviews are a
// seeded sample of a twice-as-large pool of that item's reviews.
func corpus(p *plan, cfg dataset.CorpusConfig, rng *rand.Rand, n, size int) {
	cfg.NumItems = n
	cfg.TotalReviews = n * 2 * size
	cfg.MinReviews, cfg.MaxReviews = 2*size, 2*size
	p.items = dataset.GenerateWithOntology(cfg, p.ont).Items
	for i := range p.items {
		pool := p.items[i].Reviews
		picked := make([]dataset.RawReviewDoc, size)
		for j, k := range rng.Perm(len(pool))[:size] {
			picked[j] = pool[k]
		}
		p.items[i].Reviews = picked
	}
}

func buildStateless(p *plan, rng *rand.Rand) {
	corpus(p, dataset.DoctorConfig(poolSeed), rng, statelessItems, doctorMean)
	p.stateless = true
	bodies := make([][]byte, len(p.items))
	for i, it := range p.items {
		bodies[i] = mustJSON(server.SummarizeRequest{
			ItemID: it.ID, ItemName: it.Name, Reviews: rawReviews(it.Reviews),
			K: summaryK, Granularity: summaryGran, Method: summaryMethod,
		})
		p.final = append(p.final, len(it.Reviews))
	}
	solve := func(i int) op {
		return op{kind: kindSolve, item: i, method: "POST", path: "/v1/summarize", body: bodies[i]}
	}
	for i := range p.items {
		p.warm = append(p.warm, solve(i))
	}
	var sched []op
	for range statelessPasses {
		for _, i := range rng.Perm(len(p.items)) {
			sched = append(sched, solve(i))
		}
	}
	p.clients = [][]op{sched}
	p.want = expectedCosts(p)
}

// preloadPhones generates the phone corpus and its preload PUTs plus
// one warm-up summary per item, which creates the item's coverage
// index and warm-start seed (and caches the summary).
func preloadPhones(p *plan, rng *rand.Rand, extra int) {
	corpus(p, dataset.CellPhoneConfig(poolSeed), rng, phoneItems, phonePreload+extra)
	for i := range p.items {
		p.preload = append(p.preload, appendOp(p, i, 0, phonePreload))
		p.warm = append(p.warm, summaryOp(p, i, kindMiss))
		p.final = append(p.final, phonePreload)
	}
}

func buildAppendSummarize(p *plan, rng *rand.Rand) {
	preloadPhones(p, rng, summarizeSteps)
	var sched []op
	for range summarizeSteps {
		for _, i := range rng.Perm(len(p.items)) {
			n := p.final[i]
			sched = append(sched,
				appendOp(p, i, n, n+1),
				summaryOp(p, i, kindMiss),
				summaryOp(p, i, kindHit))
			p.final[i] = n + 1
		}
	}
	p.clients = [][]op{sched}
}

func buildIndexedAppend(p *plan, rng *rand.Rand) {
	preloadPhones(p, rng, appendSteps)
	var sched []op
	for range appendSteps {
		for _, i := range rng.Perm(len(p.items)) {
			sched = append(sched, appendOp(p, i, p.final[i], p.final[i]+1))
			p.final[i]++
		}
	}
	p.clients = [][]op{sched}
}

func buildCachedRead(p *plan, rng *rand.Rand) {
	preloadPhones(p, rng, 0)
	var sched []op
	for len(sched) < cachedReads {
		for _, i := range rng.Perm(len(p.items)) {
			sched = append(sched, summaryOp(p, i, kindHit))
		}
	}
	p.clients = [][]op{sched}
}

func buildDurableIngest(p *plan, rng *rand.Rand) {
	corpus(p, dataset.DoctorConfig(poolSeed), rng, durableItems, doctorMean+durableAppends)
	p.durable = true
	for i, it := range p.items {
		n := len(it.Reviews) - durableAppends
		p.preload = append(p.preload, appendOp(p, i, 0, n))
		p.final = append(p.final, n)
	}
	// Client c owns the items with i%durableClients == c: disjoint
	// items make the final corpus independent of how the two clients
	// interleave.
	p.clients = make([][]op, durableClients)
	for range durableAppends {
		for _, i := range rng.Perm(len(p.items)) {
			c := i % durableClients
			p.clients[c] = append(p.clients[c], appendOp(p, i, p.final[i], p.final[i]+1))
			p.final[i]++
		}
	}
}

// appendOp PUTs reviews [from, to) of item i.
func appendOp(p *plan, i, from, to int) op {
	it := p.items[i]
	req := server.AppendReviewsRequest{Reviews: rawReviews(it.Reviews[from:to])}
	if from == 0 {
		req.ItemName = it.Name
	}
	return op{kind: kindAppend, item: i, method: "PUT", path: "/v1/items/" + it.ID + "/reviews", body: mustJSON(req), nAfter: to}
}

func summaryOp(p *plan, i int, k kind) op {
	return op{kind: k, item: i, method: "GET", path: summaryPath(p.items[i].ID)}
}

func summaryPath(id string) string {
	return fmt.Sprintf("/v1/items/%s/summary?k=%d&granularity=%s&method=%s", id, summaryK, summaryGran, summaryMethod)
}

func rawReviews(docs []dataset.RawReviewDoc) []server.RawReview {
	out := make([]server.RawReview, len(docs))
	for i, d := range docs {
		out[i] = server.RawReview{ID: d.ID, Text: d.Text, Rating: d.Rating}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are encoded here
	}
	return b
}

// timedOps counts one episode's timed requests.
func (p *plan) timedOps() int {
	n := 0
	for _, c := range p.clients {
		n += len(c)
	}
	return n
}
