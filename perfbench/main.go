// Command perfbench is the OSARS service benchmark. It drives the real
// internal/server handler on a loopback listener with seeded traffic,
// checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload stateless-doctor --seed 1 --seconds 10 --trace 0
//
// A run is a sequence of episodes. Each episode boots a fresh service
// exactly as osars-serve does, preloads and warms it (timed as set-up),
// runs one fixed schedule of requests (timed), then checks the store's
// final state. The schedule is a pure function of the seed, so every
// episode of a run does the same work and yields the same summaries;
// a faster program completes more episodes, not different ones.
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 the episodes run with the program's own instruments armed,
// one episode is replayed through the layers' public functions under
// the benchmark's spans, and the result holds the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// maxWall bounds a run's wall time well inside the 180-second budget,
// whatever --seconds asks for.
const maxWall = 120 * time.Second

// minEpisodes guarantees a median over several set-ups.
const minEpisodes = 3

// warmupEpisodes run first and are checked but not measured: they
// absorb the process's start-up transients (heap growth, page faults,
// the build that just ran).
const warmupEpisodes = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed seconds to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	p := newPlan(sp, *seed)
	dir, err := scratchDir(*root, sp.name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(stderr, "perfbench: %s seed %d: nproc %d, GOMAXPROCS %d, %s, data dir on %s, fsync=%s, %d items of %d-%d reviews after an episode\n",
		sp.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir), serveFsync,
		len(p.items), slices.Min(p.final), slices.Max(p.final))

	var res *result
	if *trace == 1 {
		res, err = runTraced(p, dir, *seed, *seconds, *root, stderr)
	} else {
		var eps []*episodeResult
		eps, err = runEpisodes(p, dir, *seed, *seconds)
		if err == nil {
			res = endToEnd(p, eps)
			reportErrors(stderr, eps)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// runEpisodes runs the warm-up episodes, then measured episodes until
// their timed total reaches seconds and at least minEpisodes ran.
func runEpisodes(p *plan, dir string, seed int64, seconds float64) ([]*episodeResult, error) {
	cold := newColdChecker(p)
	sample := verifySample(p, seed)
	var eps []*episodeResult
	var timed time.Duration
	start := time.Now()
	for n := 0; n < warmupEpisodes+minEpisodes || timed.Seconds() < seconds; n++ {
		if time.Since(start) > maxWall {
			break
		}
		epDir := filepath.Join(dir, "ep"+strconv.Itoa(n))
		ep, err := runEpisode(p, epDir, false, cold, sample)
		if rmErr := os.RemoveAll(epDir); err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", n, err)
		}
		eps = append(eps, ep)
		if n >= warmupEpisodes {
			timed += ep.timed
		}
	}
	if len(eps) <= warmupEpisodes {
		return nil, fmt.Errorf("no measured episode within %v", maxWall)
	}
	return eps, nil
}

// endToEnd folds episodes into the end-to-end metrics. Each timing is
// the median over the measured episodes of that episode's figure, so a
// burst of contention from outside the program that slows one episode
// does not move the result. The tail is p90: the highest percentile
// with at least ten samples beyond it in one episode of every workload
// (append-summarize-phone times 320 solves per episode).
func endToEnd(p *plan, eps []*episodeResult) *result {
	res := &result{Metrics: map[string]metric{}}
	var setups, p50s, p90s []time.Duration
	var tput []float64
	for i, ep := range eps {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		if i < warmupEpisodes {
			continue
		}
		var lat []time.Duration
		for _, o := range ep.ops {
			if o.kind == p.timed {
				lat = append(lat, o.lat)
			}
		}
		slices.Sort(lat)
		setups = append(setups, ep.setup)
		p50s = append(p50s, quantile(lat, 0.50))
		p90s = append(p90s, quantile(lat, 0.90))
		tput = append(tput, float64(len(ep.ops))/ep.timed.Seconds())
	}
	// Every episode runs the same schedule, so every episode must return
	// the same summaries; a difference is a failed determinism check.
	quality := meanCost(eps[0].costs)
	for _, ep := range eps[1:] {
		if q := meanCost(ep.costs); q != quality {
			res.Failed++
			ep.errs = append(ep.errs, fmt.Sprintf("summary_cost_per_pair %v differs from the first episode's %v", q, quality))
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics["setup_s"] = metric{median(setups).Seconds(), "s"}
	res.Metrics["throughput_ops_s"] = metric{median(tput), "ops/s"}
	res.Metrics["latency_p50_ms"] = metric{ms(median(p50s)), "ms"}
	res.Metrics["latency_p90_ms"] = metric{ms(median(p90s)), "ms"}
	res.Metrics["max_rss_mb"] = metric{maxRSSMiB(), "MiB"}
	res.Metrics["summary_cost_per_pair"] = metric{quality, "cost/pair"}
	return res
}

func reportErrors(w io.Writer, eps []*episodeResult) {
	for i, ep := range eps {
		for _, e := range ep.errs {
			fmt.Fprintf(w, "perfbench: episode %d: %s\n", i, e)
		}
	}
}

// meanCost is the mean of cost/num_pairs over one episode's summaries,
// summed in schedule order so it repeats bit for bit.
func meanCost(costs []float64) float64 {
	if len(costs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, c := range costs {
		s += c
	}
	return s / float64(len(costs))
}

// quantile is the nearest-rank quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median[T ~int64 | ~float64](v []T) T {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fsType names the filesystem holding dir, for the environment line.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type %#x", st.Type)
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
