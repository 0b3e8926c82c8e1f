package main

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// shorten keeps the first n timed ops of each client, so a test can run
// whole episodes quickly, and recomputes the items' final sizes.
func shorten(p *plan, n int) {
	for c := range p.clients {
		p.clients[c] = p.clients[c][:min(n, len(p.clients[c]))]
	}
	if p.stateless {
		return
	}
	for i := range p.final {
		p.final[i] = 0
	}
	for _, ops := range append([][]op{p.preload}, p.clients...) {
		for _, o := range ops {
			if o.kind == kindAppend {
				p.final[o.item] = max(p.final[o.item], o.nAfter)
			}
		}
	}
}

// scheduleHash fingerprints everything the program receives in one
// episode: preload, warm-up and every client's timed ops in order.
func (p *plan) scheduleHash() [32]byte {
	h := sha256.New()
	var buf [8]byte
	add := func(ops []op) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ops)))
		h.Write(buf[:])
		for _, o := range ops {
			h.Write([]byte{byte(o.kind)})
			h.Write([]byte(o.method + " " + o.path + "\n"))
			binary.LittleEndian.PutUint64(buf[:], uint64(len(o.body)))
			h.Write(buf[:])
			h.Write(o.body)
		}
	}
	add(p.preload)
	add(p.warm)
	for _, c := range p.clients {
		add(c)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// exactCounts are the traced metrics that must repeat bit for bit.
var exactCounts = []string{
	"extract.sentences", "extract.pairs", "coverage.edges", "coverage.candidates", "store.cache_hit_ratio",
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a, b, c := newPlan(sp, 7), newPlan(sp, 7), newPlan(sp, 8)
		if a.scheduleHash() != b.scheduleHash() {
			t.Errorf("%s: the same seed gave two schedules", sp.name)
		}
		if a.scheduleHash() == c.scheduleHash() {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", sp.name)
		}
	}
}

func TestRunsRepeatForASeed(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var quality [2]float64
			var traced [2]*result
			for r := range 2 {
				p := newPlan(sp, 3)
				shorten(p, 60)
				eps, err := runEpisodes(p, t.TempDir(), 3, 0)
				if err != nil {
					t.Fatal(err)
				}
				res := endToEnd(p, eps)
				if !res.Correct {
					reportErrors(testWriter{t}, eps)
					t.Fatalf("run %d: %d of %d operations failed", r, res.Failed, res.Attempted)
				}
				quality[r] = res.Metrics["summary_cost_per_pair"].Value
				root := t.TempDir()
				if traced[r], err = runTraced(p, t.TempDir(), 3, 0, root, testWriter{t}); err != nil {
					t.Fatal(err)
				}
				if !traced[r].Correct {
					t.Fatalf("traced run %d: %d of %d operations failed", r, traced[r].Failed, traced[r].Attempted)
				}
			}
			if quality[0] != quality[1] {
				t.Errorf("summary_cost_per_pair %v then %v", quality[0], quality[1])
			}
			for _, name := range exactCounts {
				a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
				if a != b {
					t.Errorf("%s %v then %v", name, a, b)
				}
			}
		})
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(b []byte) (int, error) {
	w.t.Log(string(b))
	return len(b), nil
}
