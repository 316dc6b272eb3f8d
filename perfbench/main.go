// Command perfbench is mcopt's repository benchmark. It runs one workload
// for a fixed time, checks every output it produces, and prints one JSON
// result line: the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run, -trace 1). See README.md for the workloads, the
// layer → metric → workload map, and how to compare two result sets.
//
//	perfbench -workload paper-table41 -seed 1 -seconds 30 -trace 0 -mcoptd PATH
//	perfbench -list
//
// Normally it is driven by run.py, which builds mcoptd and this program
// from the checkout first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2e is what one measured phase of a workload yields: the end-to-end
// metrics every workload reports.
type e2e struct {
	ops     sample  // one latency per operation (table, job, query)
	elapsed float64 // seconds the phase ran
	cpu     float64 // CPU seconds the process doing the work spent in the phase
	rssMB   float64 // resident set of the process doing the work (see README.md)
}

// workload runs one named traffic mix. It returns an error only when the
// benchmark itself cannot run; failed output checks go through rc.check.
type workload struct {
	name string
	run  func(rc *runCtx) error
}

var workloads = []workload{
	{"paper-table41", runTable41},
	{"svc-small-maxcut", runSmallMaxcut},
	{"svc-nola-tempering", runNOLATempering},
	{"archive-query", runArchiveQuery},
}

// runCtx carries one invocation's settings and its accumulating results.
type runCtx struct {
	mu       sync.Mutex // guards attempted, failed and problems
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool
	mcoptd   string
	goldens  string
	update   bool
	work     string // scratch directory for data dirs and archives

	attempted, failed int
	problems          []string

	setup   sample // one duration per set-up repetition
	main    e2e    // the untraced measurement
	metrics map[string]metric
	named   map[string]float64 // per-workload metric names (wall_s, done_p50_ms, ...), for the ledger
	tr      *tracer
}

// check records one output check; a false ok counts as a failure.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.failed++
	msg := fmt.Sprintf(format, args...)
	if len(rc.problems) < 20 {
		rc.problems = append(rc.problems, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func (rc *runCtx) set(name, unit string, v float64) { rc.metrics[name] = metric{v, unit} }

// phases measures fn untraced for the whole run, or — in a traced run —
// untraced for the first half and traced for the second, so the traced run
// can report tracing overhead as traced minus untraced.
func (rc *runCtx) phases(fn func(tr *tracer, seconds float64) (e2e, error)) error {
	if !rc.traced {
		var err error
		rc.main, err = fn(nil, rc.seconds)
		return err
	}
	untraced, err := fn(nil, rc.seconds/2)
	if err != nil {
		return err
	}
	rc.main = untraced
	traced, err := fn(rc.tr, rc.seconds/2)
	if err != nil {
		return err
	}
	u, t := endToEnd(rc, untraced), endToEnd(rc, traced)
	// Peak RSS is left out: the traced half runs after the untraced one on
	// the same process, so its peak includes everything before it.
	for _, name := range []string{"op_p50_ms", "ops_per_s", "cpu_ms_per_op"} {
		rc.set("trace_overhead."+name, u[name].Unit, t[name].Value-u[name].Value)
	}
	return nil
}

// endToEnd turns a phase into the BENCHMARK.json end-to-end metrics.
func endToEnd(rc *runCtx, p e2e) map[string]metric {
	return map[string]metric{
		"setup_s":       {rc.setup.median() / 1e9, "s"},
		"op_p50_ms":     {p.ops.ms(0.5), "ms"},
		"ops_per_s":     {float64(len(p.ops)) / p.elapsed, "1/s"},
		"cpu_ms_per_op": {p.cpu * 1000 / float64(len(p.ops)), "ms"},
		"rss_mb":        {p.rssMB, "MB"},
	}
}

// perLayer lists every per-layer metric with its unit. A traced run of any
// workload reports all of them; a layer the workload does not exercise
// reads 0 (the "flat" prediction of README.md).
var perLayer = []struct{ name, unit string }{
	{"linarr.propose_ns", "ns"}, {"linarr.apply_ns", "ns"}, {"linarr.allocs_per_move", "count"},
	{"maxcut.propose_ns", "ns"},
	{"core.self_ns_per_move", "ns"}, {"core.moves", "count"}, {"core.accept_ratio", "ratio"},
	{"core.tempering.exchange_accept_ratio", "ratio"}, {"core.tempering.step_busy_frac", "ratio"},
	{"metrics.hook_ns_per_move", "ns"},
	{"sched.cells", "count"}, {"sched.busy_frac", "ratio"}, {"sched.tail_ms", "ms"}, {"sched.speedup_vs_1", "ratio"},
	{"experiment.suite_s", "s"}, {"experiment.optimum_s", "s"},
	{"service.submit_p50_ms", "ms"}, {"service.commit_p50_ms", "ms"}, {"service.first_event_p50_ms", "ms"},
	{"service.queue_p50_ms", "ms"}, {"service.queue_p99_ms", "ms"}, {"service.replica_p50_ms", "ms"},
	{"service.unattributed_p50_ms", "ms"}, {"service.result_fetch_p50_ms", "ms"}, {"service.retried_frac", "ratio"},
	{"service.stream_lines_per_job", "count"}, {"service.files_per_job", "count"}, {"service.bytes_per_job", "bytes"},
	{"checkpoint.append_p50_ms", "ms"}, {"atomicio.write_p50_ms", "ms"},
	{"archive.summarize_ms", "ms"}, {"archive.scan_ns_per_record", "ns"}, {"archive.match_ratio", "ratio"},
	{"archive.segments", "count"}, {"archive.bytes", "bytes"}, {"service.query_overhead_ms", "ms"},
	{"trace_overhead.op_p50_ms", "ms"}, {"trace_overhead.ops_per_s", "1/s"},
	{"trace_overhead.cpu_ms_per_op", "ms"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 0, "how long the measured phase runs (required; BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	mcoptd := flag.String("mcoptd", "", "path to the mcoptd binary (service workloads)")
	goldens := flag.String("goldens", "perfbench/golden", "directory of committed goldens")
	out := flag.String("out", ".bench_build/out", "directory for span JSONL and the result ledger")
	commit := flag.String("commit", "unknown", "source revision stamped on the ledger row")
	runIndex := flag.Int("run-index", 0, "run index stamped on the ledger row")
	tiny := flag.Bool("tiny", false, "shrink every input (tests only; not comparable with full runs)")
	update := flag.Bool("update-goldens", false, "write this seed's goldens instead of checking them")
	list := flag.Bool("list", false, "print the workload names, one a line, and exit")
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(workloadNames(), "\n"))
		return
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fatal(err)
	}
	rc := &runCtx{
		workload: w.name, seed: *seed, seconds: *seconds, traced: *trace == 1, tiny: *tiny,
		mcoptd: *mcoptd, goldens: *goldens, update: *update, work: work,
		metrics: map[string]metric{}, named: map[string]float64{},
	}
	if rc.traced {
		rc.tr = newTracer()
		for _, m := range perLayer {
			rc.set(m.name, m.unit, 0)
		}
	}
	runErr := w.run(rc)
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if runErr != nil {
		fatal(fmt.Errorf("%s: %w", w.name, runErr))
	}
	if rc.attempted == 0 {
		fatal(fmt.Errorf("%s: no operation completed", w.name))
	}

	e := endToEnd(rc, rc.main)
	if !rc.traced {
		rc.metrics = e
	}
	rc.named["setup_s"] = e["setup_s"].Value
	rc.named["rss_mb"] = e["rss_mb"].Value
	rc.named["failed_frac"] = float64(rc.failed) / float64(rc.attempted)
	stamp := ledgerStamp(rc, *commit, *runIndex)
	if rc.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d-run%d.jsonl", w.name, *seed, *runIndex))
		if err := rc.tr.write(path); err != nil {
			fatal(err)
		}
		stamp["spans"] = path
		for name, ns := range rc.tr.selfNanos() {
			rc.named["self_ms."+name] = float64(ns) / 1e6
		}
	}
	if err := appendLedger(filepath.Join(*out, "ledger.jsonl"), stamp, rc); err != nil {
		fatal(err)
	}
	printSummary(os.Stderr, rc, stamp)

	res := result{Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: rc.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// ledgerStamp identifies where a result row came from, so rows from
// different machines or builds are never compared by accident.
func ledgerStamp(rc *runCtx, commit string, runIndex int) map[string]any {
	return map[string]any{
		"commit":     commit,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"seed":       rc.seed,
		"workload":   rc.workload,
		"run_index":  runIndex,
		"trace":      rc.traced,
		"seconds":    rc.seconds,
		"tiny":       rc.tiny,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// appendLedger adds one stamped row (stamp + metrics + the per-workload
// named metrics + outcome) to the JSONL ledger.
func appendLedger(path string, stamp map[string]any, rc *runCtx) error {
	row := map[string]any{}
	for k, v := range stamp {
		row[k] = v
	}
	row["metrics"] = rc.metrics
	row["named"] = rc.named
	row["correct"] = rc.failed == 0
	row["attempted"] = rc.attempted
	row["failed"] = rc.failed
	row["problems"] = rc.problems
	data, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary writes the human-readable report: stamp, the per-workload
// named metrics, then every reported metric with its unit.
func printSummary(w io.Writer, rc *runCtx, stamp map[string]any) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v commit=%v go=%v gomaxprocs=%v nproc=%v cpu=%q\n",
		rc.workload, rc.seed, rc.traced, stamp["commit"], stamp["go_version"], stamp["gomaxprocs"], stamp["nproc"], stamp["cpu_model"])
	fmt.Fprintf(w, "   attempted=%d failed=%d\n", rc.attempted, rc.failed)
	for _, k := range sortedKeys(rc.named) {
		fmt.Fprintf(w, "   %-28s %.6g\n", k, rc.named[k])
	}
	for _, k := range sortedKeys(rc.metrics) {
		fmt.Fprintf(w, "   %-40s %.6g %s\n", k, rc.metrics[k].Value, rc.metrics[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// selfCPU is this process's user plus system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// timeSetup runs one set-up repetition and records its duration.
func (rc *runCtx) timeSetup(fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	rc.setup.add(time.Since(t0))
	return nil
}
