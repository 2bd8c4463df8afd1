// Command perfbench is the repository's benchmark: one process that
// builds the DKF stream system from its packages, drives one of three
// workloads from a seed, checks the outputs against an in-process
// reference, and prints every metric by name with its unit.
//
//	perfbench --workload edge-suppress|routed-durable|udp-fanin \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it runs the workload for half the time,
// then replays the same seeded inputs through each layer's public calls
// with spans recorded around them, and prints the per-layer metrics;
// the spans and the layer table are written under --workdir.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when the correctness check fails. README.md explains the workloads
// and the metric-to-layer map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named, unit-tagged figure of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what a workload run hands back to main.
type report struct {
	metrics   []metric
	attempted int64
	failed    int64
	// checkErr is the first violated correctness assertion, nil when
	// every check passed.
	checkErr error
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	commit   string
	dirty    string
	// withhold >= 0 perturbs the correctness reference by one update;
	// only the smoke test sets it, to show the check fires.
	withhold int
}

func main() {
	o := options{withhold: -1}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: edge-suppress, routed-durable or udp-fanin")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "directory for data dirs and span files")
	flag.StringVar(&o.commit, "commit", "unknown", "commit id for the environment fingerprint")
	flag.StringVar(&o.dirty, "dirty", "unknown", "whether the tree had local changes")
	flag.Parse()
	o.trace = traceFlag == 1

	sp, ok := specs[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println("env:", fingerprint(o))
	rep, err := runSpec(o, sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	if rep.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", o.workload, rep.checkErr)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport writes one human-readable line per metric, then the
// result object as the last line.
func printReport(f *os.File, rep *report) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "metric %-36s %16.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.checkErr == nil, rep.attempted, rep.failed, ms})
	fmt.Fprintln(w, string(out))
}

// fingerprint names the machine and build a result came from, so that
// figures from different boxes are never compared silently.
func fingerprint(o options) string {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     o.commit,
		"dirty":      o.dirty,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	b, _ := json.Marshal(fp)
	return string(b)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap collects garbage and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the q-quantile of xs by the nearest-rank rule,
// sorting xs in place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeSetup builds a workload's topology setupRuns times, tearing down
// all but the last, and returns the last topology with the median
// build time in seconds. The median of several builds keeps one slow
// fsync or listener from deciding setup_s.
func timeSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	const setupRuns = 5
	var last T
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		// Collect the previous topology's garbage first, so that no
		// build pays for it.
		runtime.GC()
		start := time.Now()
		t, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRuns-1 {
			teardown(t)
		} else {
			last = t
		}
	}
	return last, median(times), nil
}
