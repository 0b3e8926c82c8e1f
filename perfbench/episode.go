package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"osars"
	"osars/internal/obs"
	"osars/internal/repl"
	"osars/internal/server"
)

// service is one in-process osars-serve: the same constructors and
// defaults as cmd/osars-serve, on a loopback listener.
type service struct {
	st     osars.Store
	srv    *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

// Defaults of cmd/osars-serve's flags, except the fsync policy.
const (
	serveEpsilon      = 0.5
	serveCacheEntries = 1024
	serveCacheBytes   = 64 << 20
	serveSnapEvery    = 4096
	serveSegBytes     = 8 << 20
	serveFsyncEvery   = 100 * time.Millisecond
)

// serveFsync is -fsync never. The WAL lives under .bench_build/, on
// whatever disk holds the checkout. On a virtio disk shared with other
// VMs, five seeded runs with fsync=always gave append p50s from 0.27 to
// 0.61 ms and p99s from 1.1 to 7 ms: the disk, not the program. Every
// record is still written to the WAL before its ack, group-committed,
// snapshotted and recovered; only the fsync syscall is left out of the
// timed path.
const serveFsync = osars.FsyncNever

// startService boots the service over p's ontology. dataDir makes the
// store durable; armed turns on the program's own instruments as
// -metrics would.
func startService(p *plan, dataDir string, armed bool) (*service, error) {
	sum, err := osars.New(osars.Config{Ontology: p.ont, Epsilon: serveEpsilon})
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if armed {
		reg = osars.NewMetricsRegistry()
	}
	h := server.NewWithStore(sum, nil)
	if armed {
		h.ConfigureObservability(server.ObservabilityConfig{Metrics: reg})
	}
	h.ConfigureOntologies(osars.NewOntologyRegistry(osars.OntologyRegistryOptions{Obs: reg}))
	h.BeginBoot()
	var primary *repl.PrimaryHandler
	if dataDir != "" {
		primary = repl.NewPrimaryHandler()
		h.HandleRepl(primary)
	}
	st, err := sum.OpenStore(osars.StoreOptions{
		MaxCacheEntries: serveCacheEntries,
		MaxCacheBytes:   serveCacheBytes,
		DataDir:         dataDir,
		Fsync:           serveFsync,
		FsyncInterval:   serveFsyncEvery,
		SnapshotEvery:   serveSnapEvery,
		WALSegmentBytes: serveSegBytes,
		Metrics:         reg,
	})
	if err != nil {
		return nil, err
	}
	h.FinishBoot(st)
	if primary != nil {
		src, err := repl.NewSource(st)
		if err != nil {
			st.Close()
			return nil, err
		}
		primary.Attach(src)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &service{
		st:   st,
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
			MaxHeaderBytes:    1 << 20,
		},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: durableClients,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the listener and connections, waits for the serve loop
// and closes the store (flushing and snapshotting a durable one).
func (s *service) stop() error {
	s.srv.Close()
	<-s.done
	s.client.CloseIdleConnections()
	return s.st.Close()
}

// do sends one request and returns the status and body.
func (s *service) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(start), err
}

// summaryReply holds the fields the benchmark checks in a summary.
type summaryReply struct {
	Cost       float64  `json:"cost"`
	NumPairs   int      `json:"num_pairs"`
	Sentences  []string `json:"sentences"`
	Generation uint64   `json:"generation"`
	Cached     bool     `json:"cached"`
}

type appendReply struct {
	NumReviews int    `json:"num_reviews"`
	Generation uint64 `json:"generation"`
}

// itemState is what the checker knows about one item during an episode.
// Each item belongs to exactly one client, so no lock is needed.
type itemState struct {
	gen  uint64
	cost float64
}

// clientResult is one client's share of an episode.
type clientResult struct {
	ops    []opSample
	failed int
	costs  []float64 // cost/num_pairs of each summary, in schedule order
	errs   []string
}

// opSample is one completed request.
type opSample struct {
	kind kind
	lat  time.Duration
}

func (c *clientResult) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// exec runs one op and checks its answer against the schedule.
func (s *service) exec(p *plan, o *op, items []itemState, res *clientResult) {
	status, body, lat, err := s.do(o.method, o.path, o.body)
	res.ops = append(res.ops, opSample{kind: o.kind, lat: lat})
	if err != nil {
		res.fail("%s %s: %v", o.method, o.path, err)
		return
	}
	if status < 200 || status > 299 {
		res.fail("%s %s: status %d: %.200s", o.method, o.path, status, body)
		return
	}
	check(p, o, body, items, res)
}

// check validates one 2xx answer against the schedule and what earlier
// answers established about the item.
func check(p *plan, o *op, body []byte, items []itemState, res *clientResult) {
	st := &items[o.item]
	if o.kind == kindAppend {
		var r appendReply
		if err := json.Unmarshal(body, &r); err != nil {
			res.fail("%s: bad reply: %v", o.path, err)
			return
		}
		if r.NumReviews != o.nAfter || r.Generation <= st.gen {
			res.fail("%s: num_reviews %d generation %d, want %d reviews after generation %d", o.path, r.NumReviews, r.Generation, o.nAfter, st.gen)
		}
		st.gen = r.Generation
		return
	}
	var r summaryReply
	if err := json.Unmarshal(body, &r); err != nil {
		res.fail("%s: bad reply: %v", o.path, err)
		return
	}
	if r.NumPairs <= 0 || len(r.Sentences) != summaryK {
		res.fail("%s: %d pairs, %d sentences", o.path, r.NumPairs, len(r.Sentences))
		return
	}
	res.costs = append(res.costs, r.Cost/float64(r.NumPairs))
	switch o.kind {
	case kindSolve:
		if r.Cost != p.want[o.item] {
			res.fail("%s item %d: cost %v, library gives %v", o.path, o.item, r.Cost, p.want[o.item])
		}
	case kindMiss:
		if r.Cached || r.Generation != st.gen {
			res.fail("%s: cached=%v generation %d, want a solve at generation %d", o.path, r.Cached, r.Generation, st.gen)
		}
		st.cost = r.Cost
	case kindHit:
		if !r.Cached || r.Generation != st.gen || r.Cost != st.cost {
			res.fail("%s: cached=%v generation %d cost %v, want the cached generation %d cost %v", o.path, r.Cached, r.Generation, r.Cost, st.gen, st.cost)
		}
	}
}

// episodeResult is one episode: a fresh service, set up, timed, checked.
type episodeResult struct {
	setup     time.Duration
	timed     time.Duration
	ops       []opSample // timed requests
	attempted int
	failed    int
	costs     []float64
	errs      []string
	trace     *layerSample // set when the episode ran with instruments armed
}

// runEpisode boots a fresh service, preloads and warms it (set-up),
// runs the timed schedule with one goroutine per client, then checks
// the store's final state. scratch is the episode's private directory.
func runEpisode(p *plan, scratch string, armed bool, cold *coldChecker, sample []int) (*episodeResult, error) {
	dataDir := ""
	if p.durable {
		dataDir = filepath.Join(scratch, "data")
	}
	ep := &episodeResult{}
	items := make([]itemState, len(p.items))
	warmRes := &clientResult{}

	start := time.Now()
	s, err := startService(p, dataDir, armed)
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	for i := range p.preload {
		s.exec(p, &p.preload[i], items, warmRes)
	}
	for i := range p.warm {
		s.exec(p, &p.warm[i], items, warmRes)
	}
	ep.setup = time.Since(start)
	if warmRes.failed > 0 {
		return nil, fmt.Errorf("set-up failed: %v", warmRes.errs)
	}

	var before scrape
	if armed {
		if before, err = s.scrape(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	rtBefore := readRuntime()
	results := make([]clientResult, len(p.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range p.clients[c] {
				s.exec(p, &p.clients[c][i], items, &results[c])
			}
		}(c)
	}
	wg.Wait()
	ep.timed = time.Since(t0)
	rtAfter := readRuntime()
	if armed {
		after, err := s.scrape()
		if err != nil {
			return nil, err
		}
		ep.trace = newLayerSample(before, after, rtBefore, rtAfter)
	}
	for c := range results {
		ep.ops = append(ep.ops, results[c].ops...)
		ep.attempted += len(p.clients[c])
		ep.failed += results[c].failed
		ep.costs = append(ep.costs, results[c].costs...)
		ep.errs = append(ep.errs, results[c].errs...)
	}

	if p.stateless {
		return ep, nil
	}
	if p.durable {
		// Restart on the same data directory: everything acknowledged
		// must come back.
		err := s.stop()
		s = nil
		if err != nil {
			return nil, fmt.Errorf("close store: %w", err)
		}
		t := time.Now()
		if s, err = startService(p, dataDir, false); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if status, body, _, err := s.do("GET", "/readyz", nil); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("readyz after restart: %d %s %v", status, body, err)
		}
		if ep.trace != nil {
			ep.trace.recovery = time.Since(t)
		}
	}
	verify := &clientResult{}
	got := s.verifyItems(p, verify)
	for _, i := range sample {
		want, wantPairs := cold.cost(p, i, p.final[i])
		if got[i].cost != want || got[i].pairs != wantPairs {
			verify.fail("%s: stored summary cost %v over %d pairs, from-scratch Build+Greedy gives %v over %d",
				p.items[i].ID, got[i].cost, got[i].pairs, want, wantPairs)
		}
	}
	ep.attempted += len(p.items) + 1 + len(sample)
	ep.failed += verify.failed
	ep.costs = append(ep.costs, verify.costs...)
	ep.errs = append(ep.errs, verify.errs...)
	err = s.stop()
	s = nil
	if err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	return ep, nil
}

// readBack is one item's summary as read after the timed phase.
type readBack struct {
	cost  float64
	pairs int
}

// verifyItems checks every item's review count (GET /v1/items) and
// reads back every item's summary; their costs join the episode's.
func (s *service) verifyItems(p *plan, res *clientResult) []readBack {
	status, body, _, err := s.do("GET", "/v1/items", nil)
	var list struct {
		Items []struct {
			ID         string `json:"id"`
			NumReviews int    `json:"num_reviews"`
		} `json:"items"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &list)
	}
	if err != nil || status != http.StatusOK {
		res.fail("GET /v1/items: %d %v", status, err)
	} else {
		got := make(map[string]int, len(list.Items))
		for _, it := range list.Items {
			got[it.ID] = it.NumReviews
		}
		for i, it := range p.items {
			if got[it.ID] != p.final[i] {
				res.fail("%s holds %d reviews, %d were acknowledged", it.ID, got[it.ID], p.final[i])
			}
		}
	}
	out := make([]readBack, len(p.items))
	for i := range p.items {
		path := summaryPath(p.items[i].ID)
		status, body, _, err := s.do("GET", path, nil)
		var r summaryReply
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &r)
		}
		if err != nil || status != http.StatusOK || r.NumPairs <= 0 {
			res.fail("%s: %d %v", path, status, err)
			continue
		}
		out[i] = readBack{cost: r.Cost, pairs: r.NumPairs}
		res.costs = append(res.costs, r.Cost/float64(r.NumPairs))
	}
	return out
}

// scratchDir makes the run's private directory under the checkout.
func scratchDir(root, workload string, seed int64) (string, error) {
	dir := filepath.Join(root, ".bench_build", "run", workload+"-"+strconv.FormatInt(seed, 10)+"-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
