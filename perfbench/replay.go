package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"osars"
	"osars/internal/coverage"
	"osars/internal/model"
	"osars/internal/server"
	"osars/internal/summarize"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	kinds []kind // request kind per req id
	on    bool
}

func (t *tracer) request(k kind) int32 {
	t.kinds = append(t.kinds, k)
	return int32(len(t.kinds) - 1)
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Kinds []string `json:"request_kinds"`
		Spans []span   `json:"spans"`
	}{kindNames(t.kinds), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func kindNames(ks []kind) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.String()
	}
	return out
}

// spanStats sums span durations (seconds) by name, in total and per
// request kind. Layer spans have no children, so their duration is
// their self time.
type spanStats struct {
	total  map[string]float64
	count  map[string]int
	byKind map[string]*[numKinds]float64
}

func newSpanStats(t *tracer) spanStats {
	s := spanStats{total: map[string]float64{}, count: map[string]int{}, byKind: map[string]*[numKinds]float64{}}
	for _, sp := range t.spans {
		d := time.Duration(sp.End - sp.Start).Seconds()
		s.total[sp.Name] += d
		s.count[sp.Name]++
		if s.byKind[sp.Name] == nil {
			s.byKind[sp.Name] = new([numKinds]float64)
		}
		s.byKind[sp.Name][t.kinds[sp.Req]] += d
	}
	return s
}

func (s spanStats) sum(name string) float64 { return s.total[name] }

func (s spanStats) sumOn(name string, k kind) float64 {
	if b := s.byKind[name]; b != nil {
		return b[k]
	}
	return 0
}

// mean is the mean span duration, 0 when the layer never ran.
func (s spanStats) mean(name string) float64 {
	if s.count[name] == 0 {
		return 0
	}
	return s.total[name] / float64(s.count[name])
}

// replayResult is one episode replayed outside the service.
type replayResult struct {
	tr    *tracer
	spans spanStats
	costs []float64 // cost/num_pairs per summary, in schedule order
	count [numKinds]int
	// Exact work counts of the timed ops.
	sentences, pairs, edges, candidates int
}

// replayer holds the per-item state the service would hold: the
// annotated item, its coverage index and the previous greedy result.
type replayer struct {
	p      *plan
	rt     *osars.OntologyRuntime
	tr     *tracer
	res    *replayResult
	items  []*model.Item
	idx    []*coverage.Index
	prev   []*summarize.Result
	cached [][]byte // last encoded summary per item
}

// replay runs one episode's schedule through the layers' public
// functions — json decode into the server's request types, the
// extraction pipeline, coverage.Build or the incremental Index, Greedy
// or GreedyWarm, json encode — under spans. Stateful in-memory
// workloads are then replayed a second time straight against an
// osars.Store, to time the store's own calls.
func replay(p *plan) (*replayResult, error) {
	sum, err := osars.New(osars.Config{Ontology: p.ont, Epsilon: serveEpsilon})
	if err != nil {
		return nil, err
	}
	n := len(p.items)
	r := &replayer{
		p: p, rt: sum.Runtime(), tr: &tracer{t0: time.Now()}, res: &replayResult{},
		items: make([]*model.Item, n), idx: make([]*coverage.Index, n),
		prev: make([]*summarize.Result, n), cached: make([][]byte, n),
	}
	r.res.tr = r.tr
	for _, ops := range [][]op{p.preload, p.warm} {
		for i := range ops {
			if err := r.step(&ops[i]); err != nil {
				return nil, err
			}
		}
	}
	r.tr.on = true
	for _, ops := range p.clients {
		for i := range ops {
			r.res.count[ops[i].kind]++
			if err := r.step(&ops[i]); err != nil {
				return nil, err
			}
		}
	}
	if !p.stateless && !p.durable {
		if err := replayStore(p, sum, r.tr, r.res.costs); err != nil {
			return nil, err
		}
	}
	r.res.spans = newSpanStats(r.tr)
	return r.res, nil
}

func (r *replayer) step(o *op) error {
	req := r.tr.request(o.kind)
	root := r.tr.begin("request", -1, req)
	defer r.tr.end(root)
	child := func(name string, f func()) {
		s := r.tr.begin(name, root, req)
		f()
		r.tr.end(s)
	}
	i := o.item
	metric := r.rt.Metric
	switch o.kind {
	case kindSolve:
		var body server.SummarizeRequest
		var err error
		child("server.decode", func() { err = json.Unmarshal(o.body, &body) })
		if err != nil {
			return err
		}
		reviews := toLib(body.Reviews)
		var item *model.Item
		child("extract.annotate", func() { item = r.rt.Pipeline.AnnotateItemParallel(body.ItemID, body.ItemName, reviews, 0) })
		var g *coverage.Graph
		child("coverage.build", func() { g = coverage.Build(metric, item, model.GranularitySentences) })
		var res *summarize.Result
		child("summarize.greedy", func() { res = summarize.Greedy(g, min(body.K, g.NumCandidates)) })
		r.count(item.Reviews, g)
		resp := server.SummarizeResponse{ItemID: body.ItemID, Granularity: summaryGran, Method: summaryMethod,
			Cost: res.Cost, NumPairs: len(item.Pairs()), Sentences: selected(item, res)}
		child("server.encode", func() { _, err = json.Marshal(resp) })
		r.summary(res.Cost, resp.NumPairs)
		return err
	case kindAppend:
		var body server.AppendReviewsRequest
		var err error
		child("server.decode", func() { err = json.Unmarshal(o.body, &body) })
		if err != nil {
			return err
		}
		reviews := toLib(body.Reviews)
		var annotated []model.Review
		child("extract.annotate", func() { annotated = r.rt.Pipeline.AnnotateReviews(reviews, 0) })
		r.count(annotated, nil)
		old := r.items[i]
		if old == nil {
			old = &model.Item{ID: r.p.items[i].ID, Name: body.ItemName}
		}
		// The store's copy-on-write publish of the grown item.
		ni := &model.Item{ID: old.ID, Name: old.Name, Reviews: make([]model.Review, 0, len(old.Reviews)+len(annotated))}
		ni.Reviews = append(append(ni.Reviews, old.Reviews...), annotated...)
		r.items[i] = ni
		if len(ni.Reviews) != o.nAfter {
			return fmt.Errorf("replay: %s holds %d reviews, want %d", ni.ID, len(ni.Reviews), o.nAfter)
		}
		if x := r.idx[i]; x != nil {
			child("coverage.index_advance", func() { x.Advance(ni) })
		}
		stats := osars.ItemStats{ID: ni.ID, Name: ni.Name, NumReviews: len(ni.Reviews)}
		child("server.encode", func() { _, err = json.Marshal(stats) })
		return err
	case kindMiss:
		item := r.items[i]
		if r.idx[i] == nil {
			// First solve of the item: the store builds its index lazily.
			r.idx[i] = coverage.NewIndex(metric, model.GranularitySentences)
		}
		var g *coverage.Graph
		child("coverage.index_graph", func() { g = r.idx[i].Graph(item) })
		var res *summarize.Result
		child("summarize.greedy_warm", func() { res, _ = summarize.GreedyWarm(g, min(summaryK, g.NumCandidates), r.prev[i]) })
		r.prev[i] = res
		r.count(nil, g)
		resp := server.ItemSummaryResponse{SummarizeResponse: server.SummarizeResponse{ItemID: item.ID,
			Granularity: summaryGran, Method: summaryMethod, Cost: res.Cost, NumPairs: len(g.Pairs),
			Sentences: selected(item, res)}}
		var err error
		child("server.encode", func() { r.cached[i], err = json.Marshal(resp) })
		r.summary(res.Cost, resp.NumPairs)
		return err
	case kindHit:
		var resp server.ItemSummaryResponse
		if err := json.Unmarshal(r.cached[i], &resp); err != nil {
			return err
		}
		resp.Cached = true
		var err error
		child("server.encode", func() { _, err = json.Marshal(resp) })
		r.summary(resp.Cost, resp.NumPairs)
		return err
	}
	return nil
}

// summary records a replayed answer, timed ops only.
func (r *replayer) summary(cost float64, pairs int) {
	if r.tr.on {
		r.res.costs = append(r.res.costs, cost/float64(pairs))
	}
}

// count adds the exact work of a timed op.
func (r *replayer) count(reviews []model.Review, g *coverage.Graph) {
	if !r.tr.on {
		return
	}
	for ri := range reviews {
		r.res.sentences += len(reviews[ri].Sentences)
		for si := range reviews[ri].Sentences {
			r.res.pairs += len(reviews[ri].Sentences[si].Pairs)
		}
	}
	if g != nil {
		r.res.edges += g.NumEdges()
		r.res.candidates += g.NumCandidates
	}
}

// replayStore replays the schedule against an in-memory osars.Store
// (the service's store without HTTP) and times its calls. Its answers
// must equal the layer replay's.
func replayStore(p *plan, sum *osars.Summarizer, tr *tracer, want []float64) error {
	st, err := sum.OpenStore(osars.StoreOptions{MaxCacheEntries: serveCacheEntries, MaxCacheBytes: serveCacheBytes})
	if err != nil {
		return err
	}
	defer st.Close()
	var got []float64
	do := func(o *op, timed bool) error {
		it := p.items[o.item]
		switch o.kind {
		case kindAppend:
			var body server.AppendReviewsRequest
			if err := json.Unmarshal(o.body, &body); err != nil {
				return err
			}
			reviews := toLib(body.Reviews)
			s := int32(-1)
			if timed {
				s = tr.begin("store.append", -1, tr.request(o.kind))
			}
			stats, err := st.AppendReviews(it.ID, body.ItemName, reviews)
			tr.end(s)
			if err == nil && stats.NumReviews != o.nAfter {
				err = fmt.Errorf("store replay: %s holds %d reviews, want %d", it.ID, stats.NumReviews, o.nAfter)
			}
			return err
		default:
			s := int32(-1)
			if timed {
				s = tr.begin("store.summary", -1, tr.request(o.kind))
			}
			res, _, err := osars.SummarizeStored(st, it.ID, summaryK, osars.Sentences, osars.MethodGreedy)
			tr.end(s)
			if err == nil && timed {
				got = append(got, res.Cost/float64(res.NumPairs))
			}
			return err
		}
	}
	for _, ops := range [][]op{p.preload, p.warm} {
		for i := range ops {
			if err := do(&ops[i], false); err != nil {
				return err
			}
		}
	}
	for _, ops := range p.clients {
		for i := range ops {
			if err := do(&ops[i], true); err != nil {
				return err
			}
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("store replay: %d summaries differ from the layer replay's %d", len(got), len(want))
	}
	return nil
}

func toLib(in []server.RawReview) []osars.Review {
	out := make([]osars.Review, len(in))
	for i, rr := range in {
		out[i] = osars.Review{ID: rr.ID, Text: rr.Text, Rating: rr.Rating}
	}
	return out
}

// selected returns the texts of the selected sentences.
func selected(item *model.Item, res *summarize.Result) []string {
	var texts []string
	for ri := range item.Reviews {
		for si := range item.Reviews[ri].Sentences {
			texts = append(texts, item.Reviews[ri].Sentences[si].Text)
		}
	}
	out := make([]string, len(res.Selected))
	for j, idx := range res.Selected {
		out[j] = texts[idx]
	}
	return out
}
