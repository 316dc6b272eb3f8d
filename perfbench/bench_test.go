package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// binaries builds mcoptd and the perfbench program once per test binary.
var built struct {
	dir string
	err error
}

func binaries(t *testing.T) (mcoptd, bench string) {
	t.Helper()
	if built.dir == "" && built.err == nil {
		dir, err := os.MkdirTemp("", "perfbench-test-")
		built.dir, built.err = dir, err
		for _, args := range [][]string{
			{"build", "-o", filepath.Join(dir, "mcoptd"), "mcopt/cmd/mcoptd"},
			{"build", "-o", filepath.Join(dir, "perfbench"), "."},
		} {
			if built.err != nil {
				break
			}
			if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
				built.err = err
				t.Logf("go %v: %s", args, out)
			}
		}
	}
	if built.err != nil {
		t.Fatalf("build: %v", built.err)
	}
	return filepath.Join(built.dir, "mcoptd"), filepath.Join(built.dir, "perfbench")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

type benchJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchJSON(t *testing.T) benchJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runTiny runs one workload at tiny size for a second and returns its exit
// error and parsed result line.
func runTiny(t *testing.T, workload string, trace string, goldens string) (error, result) {
	t.Helper()
	mcoptd, bench := binaries(t)
	cmd := exec.Command(bench, "-workload", workload, "-seed", "1", "-seconds", "1", "-trace", trace,
		"-tiny", "-mcoptd", mcoptd, "-goldens", goldens, "-out", t.TempDir())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%s: no result line (%v)\nstdout: %s\nstderr: %s", workload, runErr, stdout.Bytes(), stderr.Bytes())
	}
	return runErr, res
}

// Every workload, untraced and traced, at tiny size: it passes its checks
// and reports exactly BENCHMARK.json's metric names and units. perfbench
// may run workloads BENCHMARK.json does not list, never the reverse.
func TestTinyWorkloadsReportBenchmarkMetrics(t *testing.T) {
	b := loadBenchJSON(t)
	for _, w := range b.Workloads {
		if !slices.Contains(workloadNames(), w.Name) {
			t.Errorf("BENCHMARK.json workload %q is unknown to perfbench", w.Name)
		}
	}
	wantUnits := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	gated := map[string]bool{}
	for _, w := range b.Workloads {
		gated[w.Name] = true
	}
	measured := map[string]bool{} // per-layer metrics some gated workload reports > 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				err, res := runTiny(t, w.name, trace, "golden")
				if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %v, result %+v", err, res)
				}
				for name, m := range res.Metrics {
					if trace == "1" && gated[w.name] && m.Value > 0 {
						measured[name] = true
					}
				}
				want := wantUnits(b.EndToEnd)
				if trace == "1" {
					want = wantUnits(b.PerLayer)
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if len(got) != len(want) {
					t.Errorf("reported %v, want %v", sortedKeys(got), sortedKeys(want))
				}
				for name, unit := range want {
					if got[name] != unit {
						t.Errorf("metric %s: unit %q, want %q", name, got[name], unit)
					}
				}
			})
		}
	}
	// Every measured layer has a metric that some gated workload moves.
	for _, name := range []string{
		"linarr.propose_ns", "maxcut.propose_ns", "core.self_ns_per_move", "metrics.hook_ns_per_move",
		"sched.busy_frac", "experiment.suite_s", "service.submit_p50_ms",
		"checkpoint.append_p50_ms", "atomicio.write_p50_ms", "archive.summarize_ms",
	} {
		if !measured[name] {
			t.Errorf("per-layer metric %s reads 0 on every BENCHMARK.json workload", name)
		}
	}
}

// A golden that no longer matches the program's output fails the run:
// non-zero exit, correct=false, and the mismatch counted as failed.
func TestCorruptedGoldenFailsRun(t *testing.T) {
	for _, tc := range []struct{ workload, file string }{
		{"paper-table41", "paper-table41-seed1-tiny.txt"},
		{"svc-small-maxcut", "svc-small-maxcut-seed1-tiny.json"},
		{"archive-query", "archive-query-seed1-tiny.json"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			dir := t.TempDir()
			entries, err := os.ReadDir("golden")
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join("golden", e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() == tc.file {
					// Flip one digit of the first number or digest.
					i := bytes.IndexAny(data, "0123456789")
					data[i] = '0' + (data[i]-'0'+1)%10
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err, res := runTiny(t, tc.workload, "0", dir)
			if err == nil || res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted %s: exit %v, result %+v; want a failed run", tc.file, err, res)
			}
		})
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("x", "job", 0, at(0), at(100))
	tr.record("x", "queue", root, at(10), at(30))
	tr.record("x", "run", root, at(20), at(60))     // overlaps queue: union 10..60
	tr.record("x", "commit", root, at(90), at(120)) // clipped to the parent
	self := tr.selfNanos()
	if got, want := self["job"], int64(40*time.Millisecond); got != want {
		t.Errorf("job self time %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got, want := self["run"], int64(40*time.Millisecond); got != want {
		t.Errorf("run self time %v, want %v", time.Duration(got), time.Duration(want))
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{{5, "max"}, {20, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}} {
		s := sample{}
		for i := 0; i < tc.n; i++ {
			s = append(s, float64(i))
		}
		if got, _ := s.tail(); got != tc.want {
			t.Errorf("n=%d: tail %s, want %s", tc.n, got, tc.want)
		}
	}
}
