// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload: it generates the inputs from --seed, computes the
// oracle's answer, verifies every algorithm's output digest, then either
// times all eight algorithms with tracing off (--trace 0, the end-to-end
// metrics) or replays them traced and calls into each layer directly
// (--trace 1, the per-layer metrics). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this module first:
//
//	bash perfbench/run.sh --workload rest-fk --seed 1 --seconds 25 --trace 0
//
// BENCHMARK.json names the workloads and metrics; README.md in this
// directory explains each metric and what should move it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	iawj "repro"
	"repro/internal/trace"
)

// defaultSeed is the seed claims are developed against; heldOutSeed is
// kept back so a claim can be re-checked on inputs it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 1009
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median, so one slow set-up does not decide the figure.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for re-checking claims)", defaultSeed, heldOutSeed))
	secs := fs.Int("seconds", 25, "seconds the timed (or traced) passes run for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		logf("usage: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	spans := fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", *name, *seed)

	env := stamp(*name, *seed)
	var log *spanLog // nil: tracing off, nothing recorded
	if *traced == 1 {
		log = newSpanLog(env.RunID)
	}
	root := log.begin("run", 0)
	w, setups, err := setUp(*name, *seed, log, root)
	if err != nil {
		logf("set-up: %v", err)
		return 1
	}

	var t tally
	vid := log.begin("verify", root)
	for _, alg := range iawj.Algorithms() {
		id := log.begin("verify."+alg, vid)
		w.verify(alg, &t)
		log.end(id)
	}
	log.end(vid)
	budget := int64(*secs) * 1e9
	var m metricSet
	if log == nil {
		totals := make([]float64, len(setups))
		for i, s := range setups {
			totals[i] = s.total()
		}
		m = endToEnd(median(totals), w.timedRun(budget, &t))
	} else {
		m = w.tracedRun(budget, setups, log, root, &t)
		log.end(root)
		if err := log.write(spans, env); err != nil {
			logf("%v", err)
			return 1
		}
		log.printSelf(stdout, 12)
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(log.spans), spans)
	}

	m.print(stdout, env)
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed\n", t.attempted, t.failed)
	line, err := json.Marshal(result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	})
	if err != nil {
		logf("encode result: %v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setUp builds the workload setupReps times, each on a freshly collected
// heap, and returns the last build with the time of every one. All builds
// must yield the same oracle digest: the inputs are a function of the seed
// alone.
func setUp(name string, seed uint64, log *spanLog, parent int) (*workload, []setupTimes, error) {
	var w *workload
	var times []setupTimes
	var pool *iawj.StatePool
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the previous build's garbage is not this one's cost
		id := log.begin("setup", parent)
		wi, t, err := build(name, seed, fullScale, pool, log, id)
		log.end(id)
		if err != nil {
			return nil, nil, err
		}
		if w != nil && wi.digest != w.digest {
			return nil, nil, errors.New("set-up is not deterministic: two builds from one seed differ")
		}
		w, pool = wi, wi.pool
		times = append(times, t)
	}
	return w, times, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// metric is one named figure; encoding/json writes a metricSet's names in
// sorted order.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// print writes the environment stamp and one line per metric.
func (m metricSet) print(out io.Writer, env envStamp) {
	b, err := json.Marshal(env)
	if err != nil {
		b = []byte(err.Error())
	}
	fmt.Fprintf(out, "env: %s\n", b)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// envStamp identifies the inputs and the host a run's figures belong to.
type envStamp struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	RunID    string        `json:"run_id"`
	Env      trace.EnvInfo `json:"env"`
	NProc    int           `json:"nproc"`
	CPU      string        `json:"cpu_model"`
}

func stamp(name string, seed uint64) envStamp {
	return envStamp{
		Workload: name,
		Seed:     seed,
		RunID:    fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()),
		Env:      trace.CurrentEnv(),
		NProc:    runtime.NumCPU(),
		CPU:      cpuModel(),
	}
}

// logf reports progress and failures on standard error, keeping standard
// output for the report.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
