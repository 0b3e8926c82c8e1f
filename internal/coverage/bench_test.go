package coverage

import (
	"sync"
	"testing"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/sentiment"
)

// benchItem generates and annotates one item of exactly n reviews
// from cfg's domain.
func benchItem(cfg dataset.CorpusConfig, n int) (model.Metric, *model.Item) {
	cfg.NumItems = 1
	cfg.TotalReviews, cfg.MinReviews, cfg.MaxReviews = n, n, n
	c := dataset.Generate(cfg)
	pipe := extract.NewPipeline(extract.NewMatcher(c.Ont), sentiment.Lexicon{})
	it := c.Items[0]
	raws := make([]extract.RawReview, len(it.Reviews))
	for i, r := range it.Reviews {
		raws[i] = extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating}
	}
	return model.Metric{Ont: c.Ont, Epsilon: 0.5}, pipe.AnnotateItem(it.ID, it.Name, raws)
}

// The two bench items: a 69-review doctor item (the Table-1 mean) and
// a 1,000-review phone item (the size the service benchmark's phone
// workloads index).
var (
	doctorOnce, phoneOnce sync.Once
	doctorM, phoneM       model.Metric
	doctorItem, phoneItem *model.Item
)

func doctorBench() (model.Metric, *model.Item) {
	doctorOnce.Do(func() { doctorM, doctorItem = benchItem(dataset.DoctorConfig(1), 69) })
	return doctorM, doctorItem
}

func phoneBench() (model.Metric, *model.Item) {
	phoneOnce.Do(func() { phoneM, phoneItem = benchItem(dataset.CellPhoneConfig(1), 1000) })
	return phoneM, phoneItem
}

var sinkGraph *Graph

// Ablation 2 (DESIGN.md): §4.1 bucket+closure initialization vs naive
// all-pairs distances.
func BenchmarkAblationInitBucketed(b *testing.B) {
	m, item := doctorBench()
	pairs := item.Pairs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = BuildPairs(m, pairs)
	}
}

func BenchmarkAblationInitNaive(b *testing.B) {
	m, item := doctorBench()
	pairs := item.Pairs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = BuildPairsNaive(m, pairs)
	}
}

// The from-scratch index rebuild (NewIndex, then Graph) against Build
// on the same item, at sentence granularity: the lazy rebuild every
// item pays on its first solve after boot, recovery, a replica
// bootstrap or an ontology swap.
func benchBuild(b *testing.B, m model.Metric, item *model.Item) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkGraph = Build(m, item, model.GranularitySentences)
	}
}

func benchRebuild(b *testing.B, m model.Metric, item *model.Item) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkGraph = NewIndex(m, model.GranularitySentences).Graph(item)
	}
}

func BenchmarkBuildDoctor(b *testing.B) { m, it := doctorBench(); b.ResetTimer(); benchBuild(b, m, it) }
func BenchmarkIndexRebuildDoctor(b *testing.B) {
	m, it := doctorBench()
	b.ResetTimer()
	benchRebuild(b, m, it)
}
func BenchmarkBuildPhone(b *testing.B) { m, it := phoneBench(); b.ResetTimer(); benchBuild(b, m, it) }
func BenchmarkIndexRebuildPhone(b *testing.B) {
	m, it := phoneBench()
	b.ResetTimer()
	benchRebuild(b, m, it)
}
