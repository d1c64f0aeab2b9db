// Command perfbench is the repository's end-to-end benchmark: it times
// complete scenario sweeps (sweep.Grid.RunWithEngines, then the aggregate
// table a `zigzag-sim -sweep` user reads) on one of five workloads, checks
// every row and every agent's act against an offline reference, and prints
// one JSON result line.
//
//	perfbench --workload live --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: the median sweep wall
// time, cell throughput and set-up time. With --trace 1 it instead runs the
// staged per-layer trace (trace.go) and reports per-layer times,
// allocations and work counters. README.md lists the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/clockless/zigzag/internal/sweep"
)

// setupReps is how many batches of builds a run times; setup_s is the
// median, so one slow batch (a GC, a page-fault burst) does not move it.
const setupReps = 21

// setupBatch is the least time one batch of builds takes.
const setupBatch = 20 * time.Millisecond

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
	name := flag.String("workload", "", "workload: offline, live, heavy, prefix, xbatch or flagship")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured duration in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: staged per-layer trace")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func bench(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	grid, setup, err := setUp(name, seed)
	if err != nil {
		return nil, err
	}
	exp, err := reference(grid)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	// A sweep row keeps only the number of acting agents and the earliest
	// act, so every agent's act is checked first, untimed, on one pass that
	// runs the live cells the way the sweep does. That pass and untimed
	// sweeps together run for at least a second, so lazy runtime set-up
	// (heap growth, first-use page faults) finishes before anything is
	// timed; the sweeps are checked like the rest.
	warm := time.Now()
	cs := cells(grid)
	verified, vfailed, err := verifyAgents(cs, unitsOf(cs), exp)
	if err != nil {
		return nil, err
	}
	for time.Since(warm) < time.Second {
		if _, err := sweepOnce(grid, exp); err != nil {
			return nil, err
		}
	}
	var res *result
	if traced {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		res, err = traceRun(grid, exp, d, path)
	} else {
		res, err = measure(grid, exp, d, setup)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted += verified
	res.Failed += vfailed
	res.Correct = res.Failed == 0
	return res, nil
}

// setUp builds the workload from the seed and returns the last grid with
// the median build time in seconds. Most builds take well under a
// millisecond, so they are timed in batches of at least setupBatch: a
// sample is one batch's time per build, taken after a GC so that every
// batch starts from the same heap.
func setUp(name string, seed int64) (*sweep.Grid, float64, error) {
	t0 := time.Now()
	g, err := buildGrid(name, seed)
	if err != nil {
		return nil, 0, err
	}
	k := int(setupBatch/time.Since(t0)) + 1
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < k; j++ {
			if g, err = buildGrid(name, seed); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds()/float64(k))
	}
	return g, quantile(times, 0.5), nil
}

// sweepRun is one timed sweep: the grid itself, then the aggregation a
// sweep user reads (sweep.Summarize rendered as the text table).
type sweepRun struct {
	grid, aggregate time.Duration
	alloc           uint64 // heap bytes allocated by the sweep
	report          sweep.EngineReport
	failed          int
}

func sweepOnce(g *sweep.Grid, exp []expected) (*sweepRun, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	results, report, err := g.RunWithEngines()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	var table bytes.Buffer
	if err := sweep.Write(&table, "table", sweep.Summarize(results)); err != nil {
		return nil, err
	}
	t2 := time.Now()
	runtime.ReadMemStats(&ms)
	sr := &sweepRun{grid: t1.Sub(t0), aggregate: t2.Sub(t1), alloc: ms.TotalAlloc - alloc0, report: report}
	var first error
	sr.failed, first = check(exp, results, report)
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", first)
	}
	return sr, nil
}

// measure repeats the sweep for d and reports the end-to-end metrics.
func measure(g *sweep.Grid, exp []expected, d time.Duration, setup float64) (*result, error) {
	var walls []float64
	var total time.Duration
	res := &result{}
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		sr, err := sweepOnce(g, exp)
		if err != nil {
			return nil, err
		}
		wall := sr.grid + sr.aggregate
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		total += wall
		res.Attempted += len(exp)
		res.Failed += sr.failed
	}
	n := float64(res.Attempted)
	res.Metrics = map[string]metric{
		"sweep_ms":    {quantile(walls, 0.5), "ms"},
		"cells_per_s": {n / total.Seconds(), "1/s"},
		"setup_s":     {setup, "s"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d sweeps of %d cells, median %.1f ms", len(walls), len(exp), quantile(walls, 0.5))
	// The highest percentile with at least ten sweeps beyond it, if any.
	if p := 100 - (1000+len(walls)-1)/len(walls); p > 50 {
		fmt.Fprintf(os.Stderr, ", p%d %.1f ms", p, quantile(walls, float64(p)/100))
	}
	fmt.Fprintln(os.Stderr)
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
