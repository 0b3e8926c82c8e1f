package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The traced pass has three parts:
//
//  1. HTTP episodes with the program's instruments armed (the same
//     registry osars-serve -metrics builds), /metrics scraped just
//     before and after each timed phase, alternated with unarmed
//     episodes so the instruments' overhead shows;
//  2. a replay of one episode's schedule through the layers' public
//     functions under the benchmark's own spans (replay.go), whose
//     answers must equal the HTTP answers;
//  3. runtime/metrics deltas over each timed phase.
//
// Layer times are then expressed per episode and as shares of the
// summed client latency of the episode's requests.

// scrape is one /metrics read: every sample summed over its labels.
type scrape map[string]float64

func (s *service) scrape() (scrape, error) {
	status, body, _, err := s.do("GET", "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %d %v", status, err)
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %q: %v", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// runtime/metrics read around each timed phase.
var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type rtSample []float64

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make(rtSample, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// layerSample is what one armed episode's timed phase moved.
type layerSample struct {
	inst     scrape   // instrument deltas
	rt       rtSample // runtime/metrics deltas
	recovery time.Duration
}

func newLayerSample(before, after scrape, rtBefore, rtAfter rtSample) *layerSample {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	rt := make(rtSample, len(rtAfter))
	for i := range rtAfter {
		rt[i] = rtAfter[i] - rtBefore[i]
	}
	return &layerSample{inst: d, rt: rt}
}

// runTraced runs the traced pass and returns the per-layer metrics.
func runTraced(p *plan, dir string, seed int64, seconds float64, root string, stderr io.Writer) (*result, error) {
	cold := newColdChecker(p)
	sample := verifySample(p, seed)
	var armed, plain []*episodeResult
	var timed time.Duration
	start := time.Now()
	res := &result{Metrics: map[string]metric{}}
	// Episode 0 is the warm-up; then armed and unarmed episodes alternate.
	for n := 0; len(armed) < minEpisodes || len(plain) < minEpisodes || timed.Seconds() < seconds; n++ {
		if time.Since(start) > maxWall/2 {
			break
		}
		epDir := filepath.Join(dir, "ep"+strconv.Itoa(n))
		ep, err := runEpisode(p, epDir, n%2 == 1, cold, sample)
		if rmErr := os.RemoveAll(epDir); err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", n, err)
		}
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		reportErrors(stderr, []*episodeResult{ep})
		switch {
		case n < warmupEpisodes:
			continue
		case ep.trace != nil:
			armed = append(armed, ep)
		default:
			plain = append(plain, ep)
		}
		timed += ep.timed
	}
	if len(armed) == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("no measured episode within %v", maxWall/2)
	}

	rp, err := replay(p)
	if err != nil {
		return nil, err
	}
	// The replay must have done the same work: the same summaries, in
	// the same order, as the first armed episode's timed phase.
	res.Attempted++
	if got, want := rp.costs, armed[0].costs; len(want) < len(got) || !slices.Equal(got, want[:len(got)]) {
		res.Failed++
		fmt.Fprintf(stderr, "perfbench: replay answers differ from the HTTP answers (%d vs %d summaries)\n", len(got), len(want))
	}
	res.Correct = res.Failed == 0

	layers(p, res, armed, plain, rp, stderr)
	if err := rp.tr.write(filepath.Join(root, ".bench_build", "trace", p.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// layers computes the per-layer metrics. Span times come from the
// replay (one episode); instrument and client times are averaged over
// the armed episodes, so everything is per episode.
func layers(p *plan, res *result, armed, plain []*episodeResult, rp *replayResult, stderr io.Writer) {
	n := float64(len(armed))
	inst := scrape{}
	var rt rtSample
	var recovery time.Duration
	var client time.Duration
	for _, ep := range armed {
		for k, v := range ep.trace.inst {
			inst[k] += v / n
		}
		if rt == nil {
			rt = make(rtSample, len(ep.trace.rt))
		}
		for i, v := range ep.trace.rt {
			rt[i] += v / n
		}
		recovery += ep.trace.recovery
		for _, o := range ep.ops {
			client += o.lat
		}
	}
	recovery /= time.Duration(len(armed))
	e2e := client.Seconds() / n // summed client latency of one episode
	ops := float64(p.timedOps())

	set := func(name, unit string, v float64) {
		res.Metrics[name] = metric{v, unit}
	}
	hist := func(name string) (sum, count float64) { return inst[name+"_sum"], inst[name+"_count"] }
	mean := func(name string) float64 {
		s, c := hist(name)
		return div(s, c)
	}
	sp := rp.spans

	handler, _ := hist("osars_http_request_seconds")
	set("server.handler_ms", "ms", handler/ops*1e3)
	set("http.transport_ms", "ms", (e2e-handler)/ops*1e3)
	set("server.decode_us", "us", sp.mean("server.decode")*1e6)
	set("server.encode_us", "us", sp.mean("server.encode")*1e6)
	set("extract.annotate_us", "us", sp.mean("extract.annotate")*1e6)
	set("extract.sentences", "count", float64(rp.sentences))
	set("extract.pairs", "count", float64(rp.pairs))
	set("coverage.build_us", "us", sp.mean("coverage.build")*1e6)
	set("coverage.edges", "count", float64(rp.edges))
	set("coverage.candidates", "count", float64(rp.candidates))
	set("coverage.index_advance_us", "us", sp.mean("coverage.index_advance")*1e6)
	set("coverage.index_merge_us", "us", mean("osars_store_index_merge_seconds")*1e6)
	set("coverage.index_graph_us", "us", sp.mean("coverage.index_graph")*1e6)
	set("coverage.graph_build_us", "us", mean("osars_store_graph_build_seconds")*1e6)
	set("coverage.index_rebuilds", "count", inst["osars_store_index_rebuilds_total"])
	set("summarize.greedy_us", "us", sp.mean("summarize.greedy")*1e6)
	set("summarize.greedy_warm_us", "us", sp.mean("summarize.greedy_warm")*1e6)
	set("summarize.solve_us", "us", mean("osars_store_solve_seconds")*1e6)
	hits, falls := inst["osars_store_index_warm_hits_total"], inst["osars_store_index_warm_fallbacks_total"]
	set("summarize.warm_hit_ratio", "ratio", div(hits, hits+falls))
	set("store.append_us", "us", mean("osars_store_append_seconds")*1e6)
	set("store.summary_us", "us", sp.mean("store.summary")*1e6)
	ch, cm := inst["osars_store_cache_hits_total"], inst["osars_store_cache_misses_total"]
	set("store.cache_hit_ratio", "ratio", div(ch, ch+cm))
	_, solves := hist("osars_store_solve_seconds")
	set("store.solves", "solves/read", div(solves, ch+cm))
	set("store.commit_batch_size", "records", mean("osars_store_commit_batch_size"))
	set("store.recovery_s", "s", recovery.Seconds())
	appends := float64(rp.count[kindAppend])
	fsyncSum, fsyncs := hist("osars_wal_fsync_seconds")
	set("wal.fsyncs_per_append", "fsyncs/append", div(fsyncs, appends))
	set("wal.fsync_us", "us", div(fsyncSum, fsyncs)*1e6)
	set("wal.bytes_per_append", "B/append", div(inst["osars_wal_bytes_written_total"], appends))
	_, snaps := hist("osars_wal_snapshot_seconds")
	set("wal.snapshots", "count", snaps)
	set("wal.snapshot_ms", "ms", mean("osars_wal_snapshot_seconds")*1e3)
	set("go.alloc_bytes_per_op", "B/op", rt[1]/ops)
	set("go.gc_cycles", "count", rt[0])
	set("go.gc_cpu_share", "ratio", div(rt[2], rt[3]))

	// Shares of the episode's summed client latency. Each request waits
	// for the fsync of its commit batch, so the WAL's share is the fsync
	// time times the batch size. The store's self time is its span (the
	// program's own append histogram, or the replayed store.summary
	// span) minus the layer spans inside it.
	wal := fsyncSum * mean("osars_store_commit_batch_size")
	storeAppend, _ := hist("osars_store_append_seconds")
	storeSelf := storeAppend - sp.sumOn("extract.annotate", kindAppend) - sp.sum("coverage.index_advance") - wal
	storeSelf += sp.sum("store.summary") - sp.sum("coverage.index_graph") - sp.sum("summarize.greedy_warm")
	shares := []struct {
		name string
		sec  float64
	}{
		{"share.http", e2e - handler},
		{"share.server", sp.sum("server.decode") + sp.sum("server.encode")},
		{"share.extract", sp.sum("extract.annotate")},
		{"share.coverage", sp.sum("coverage.build") + sp.sum("coverage.index_advance") + sp.sum("coverage.index_graph")},
		{"share.summarize", sp.sum("summarize.greedy") + sp.sum("summarize.greedy_warm")},
		{"share.store", math.Max(0, storeSelf)},
		{"share.wal", wal},
	}
	attributed := 0.0
	for _, s := range shares {
		set(s.name, "ratio", s.sec/e2e)
		attributed += s.sec
	}
	unattributed := 1 - attributed/e2e
	set("unattributed_share", "ratio", unattributed)
	// GC runs beside a request on the other P or as assists inside the
	// spans above, so its CPU time is reported next to the layers, not
	// added to them: it bounds the runtime's share from above.
	set("share.go", "ratio", rt[2]/e2e)

	var lp, la time.Duration
	var np, na int
	for _, ep := range plain {
		for _, o := range ep.ops {
			if o.kind == p.timed {
				lp += o.lat
				np++
			}
		}
	}
	for _, ep := range armed {
		for _, o := range ep.ops {
			if o.kind == p.timed {
				la += o.lat
				na++
			}
		}
	}
	overhead := (la.Seconds()/float64(na))/(lp.Seconds()/float64(np)) - 1
	set("tracing_overhead", "ratio", overhead)
	flag := 0.0
	if math.Abs(unattributed) > layerSumTolerance {
		flag = 1
		fmt.Fprintf(stderr, "perfbench: layer-sum check: %s layers miss the end-to-end latency by %.1f%% (tracing overhead %.1f%%)\n",
			p.name, 100*unattributed, 100*overhead)
	}
	set("layer_sum_flag", "flag", flag)
}

// div is a/b, or 0 for a layer that did no work (b == 0).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerSumTolerance is how far the layer self-times may miss the
// end-to-end latency before the workload is flagged.
const layerSumTolerance = 0.10
