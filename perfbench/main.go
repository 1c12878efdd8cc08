// Command perfbench is the axml benchmark. It boots real axmld processes on
// loopback, drives one named workload against them with closed-loop clients,
// checks every response, and prints the end-to-end metrics; with -trace 1 it
// instead replays the same seeded inputs in-process through each layer's
// public functions and prints per-layer costs. Run it through run.sh, which
// builds axmld and this program from the checkout first.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Lines before it are a human-readable report (every metric by name and
// unit, sample counts, and the cross-checks).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	name string
	// run measures the workload untraced (end-to-end metrics) or traced
	// (per-layer metrics) and fills rep.
	run func(env *env, rep *report) error
}

var workloads = []workload{
	{"exchange-hot", runExchangeHot},
	{"exchange-materialize", runExchangeMaterialize},
	{"write-replicated", runWriteReplicated},
}

// env is the run's configuration, shared by every workload.
type env struct {
	name    string // workload
	seed    int64
	seconds time.Duration
	trace   bool
	axmld   string // daemon binary
	dir     string // this run's directory (schemas, data, logs)
}

// rng returns a generator derived from the run seed and a stream number, so
// every client and every generator sees its own reproducible sequence.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*7919 + stream))
}

// traceFile is where the traced run writes its spans: next to the per-run
// directories, kept after the run.
func (e *env) traceFile() string {
	return filepath.Join(filepath.Dir(filepath.Dir(e.dir)), "traces", fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed))
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's outcome: request accounting, check failures,
// the metrics the contract prints, and human-readable lines.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string // failed checks and cross-checks, capped
	broken    bool     // a cross-check failed: the run is not correct
	metrics   map[string]metricValue
	lines     []string
}

const maxProblems = 20

func newReport() *report { return &report{metrics: map[string]metricValue{}} }

// count adds per-request accounting from one client or replay.
func (r *report) count(attempted, failed int64) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// problem records a failed check. A cross-check failure marks the whole run
// incorrect; per-request failures are counted through count.
func (r *report) problem(crossCheck bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if crossCheck {
		r.broken = true
	}
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a contract metric (printed in the JSON line).
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.note("%-28s %14.6g %s", name, v, unit)
}

// note adds a human-readable report line.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return !r.broken && r.failed == 0 && r.attempted > 0 }

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from the traced in-process replay")
	axmld := flag.String("axmld", "", "axmld binary")
	work := flag.String("work", ".bench_build/runs", "directory for per-run files")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *axmld, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, axmld, work string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown -workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if axmld == "" {
		return fmt.Errorf("-axmld is required")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, fmt.Sprintf("%s-seed%d-trace%d-", name, seed, trace))
	if err != nil {
		return err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}
	e := &env{
		name:    name,
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		trace:   trace == 1,
		axmld:   axmld,
		dir:     dir,
	}
	rep := newReport()
	if err := w.run(e, rep); err != nil {
		return fmt.Errorf("%s: %w (daemon logs kept in %s)", name, err, dir)
	}
	ok := rep.correct()
	if ok {
		// Per-run files (daemon logs, WAL data) only matter for diagnosis.
		_ = os.RemoveAll(dir)
	}
	fmt.Printf("workload %s seed %d trace %d\n", name, seed, trace)
	for _, l := range rep.lines {
		fmt.Println("  " + l)
	}
	for _, p := range rep.problems {
		fmt.Println("  FAILED CHECK: " + p)
	}
	if !ok {
		fmt.Printf("  daemon logs kept in %s\n", dir)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{ok, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// durations is a set of exact latency samples.
type durations []time.Duration

// quantile returns the nearest-rank q-quantile of the samples (sorting them
// in place); 0 for an empty set.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(d, func(i, j int) bool { return d[i] < d[j] }) {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	rank := int(math.Ceil(q*float64(len(d)))) - 1
	return d[min(max(rank, 0), len(d)-1)]
}

func (d durations) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
