package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mcopt/internal/core"
	"mcopt/internal/experiment"
	"mcopt/internal/linarr"
	"mcopt/internal/rng"
	"mcopt/internal/sched"
)

// paper-table41: Table 4.1 at paper budgets in one process, cells on a
// scheduler nproc wide. The table is rendered exactly as olabench prints it
// and must equal the first table of the run, the committed golden for the
// seed, and a replay of sampled cells.

// table41Budgets are the paper's 6/9/12 VAX-second budgets (tiny: 2%).
func (rc *runCtx) table41Budgets() []int64 {
	if rc.tiny {
		return experiment.PaperBudgets(0.02)
	}
	return experiment.PaperBudgets(1)
}

// tableRun is one timed Table41 call plus its scheduler completion times.
type tableRun struct {
	text  []byte
	x     *experiment.Matrix
	wall  time.Duration
	start time.Time
	done  []time.Time // cell completion instants, in completion order
}

func (rc *runCtx) table41(workers int, parent int64, trace string) (*tableRun, error) {
	tr := &tableRun{start: time.Now()}
	cfg := experiment.Config{Exec: sched.Options{Workers: workers}}
	if rc.tr != nil && parent != 0 {
		cfg.Exec.Progress = func(done, total int) { tr.done = append(tr.done, time.Now()) }
	}
	span := rc.tr.start(trace, "experiment.Table41", parent)
	t, x, err := experiment.Table41(rc.seed, rc.table41Budgets(), cfg)
	rc.tr.end(span)
	if err != nil {
		return nil, err
	}
	render := rc.tr.start(trace, "render", parent)
	var buf bytes.Buffer
	if err := t.Render(&buf); err != nil {
		return nil, err
	}
	buf.WriteByte('\n') // olabench ends each table with a blank line
	rc.tr.end(render)
	tr.text, tr.x, tr.wall = buf.Bytes(), x, time.Since(tr.start)
	return tr, nil
}

func runTable41(rc *runCtx) error {
	var suite *experiment.Suite
	var opt int
	var suiteS, optS sample
	for i := 0; i < 15; i++ {
		if err := rc.timeSetup(func() error {
			t0 := time.Now()
			suite = experiment.NewSuite(experiment.GOLAParams(), rc.seed)
			suiteS.add(time.Since(t0))
			t1 := time.Now()
			var ok bool
			opt, ok = experiment.SuiteOptimum(suite)
			optS.add(time.Since(t1))
			if !ok {
				return fmt.Errorf("suite beyond the exact solver")
			}
			return nil
		}); err != nil {
			return err
		}
	}
	optimal := suite.StartDensitySum() - opt
	nproc := runtime.NumCPU()

	var first *tableRun
	var last *tableRun
	n := 0
	err := rc.phases(func(tr *tracer, seconds float64) (e2e, error) {
		saved := rc.tr
		rc.tr = tr
		defer func() { rc.tr = saved }()
		var p e2e
		t0, cpu0 := time.Now(), selfCPU()
		for time.Since(t0).Seconds() < seconds || len(p.ops) == 0 {
			n++
			id := fmt.Sprintf("table-%d", n)
			root := rc.tr.start(id, "table", 0)
			run, err := rc.table41(nproc, root, id)
			if err != nil {
				return p, err
			}
			chk := rc.tr.start(id, "check", root)
			rc.attempted++
			if first == nil {
				first = run
				rc.checkTable41(run, optimal)
			} else {
				rc.check(bytes.Equal(run.text, first.text), "table %d differs from the run's first table", n)
			}
			rc.tr.end(chk)
			rc.tr.end(root)
			p.ops.add(run.wall)
			last = run
		}
		p.elapsed, p.cpu = time.Since(t0).Seconds(), selfCPU()-cpu0
		p.rssMB = selfPeakRSSMB()
		return p, nil
	})
	if err != nil {
		return err
	}
	rc.named["wall_s"] = rc.main.ops.median() / 1e9
	rc.named["wall_n"] = float64(len(rc.main.ops))
	if !rc.traced {
		return nil
	}

	rc.set("experiment.suite_s", "s", suiteS.median()/1e9)
	rc.set("experiment.optimum_s", "s", optS.median()/1e9)
	// The width-1 baseline: sequential, so consecutive completions time
	// each cell exactly.
	root := rc.tr.start("table-width1", "table", 0)
	seq, err := rc.table41(1, root, "table-width1")
	if err != nil {
		return err
	}
	rc.tr.end(root)
	rc.check(bytes.Equal(seq.text, first.text), "width-1 table differs from the width-%d table", nproc)
	prev := seq.start
	for _, at := range seq.done {
		rc.tr.record("table-width1", "sched.cell", root, prev, at)
		prev = at
	}
	cells := len(last.done)
	rc.set("sched.cells", "count", float64(cells))
	rc.set("sched.speedup_vs_1", "ratio", float64(seq.wall)/float64(last.wall))
	if cells > nproc {
		// Once the (cells-nproc)th cell completes no new cell starts: the
		// pool drains at less than full width from there on, one worker
		// going idle at each completion. Busy share of the grid interval
		// (table start to last completion) is what that drain leaves.
		end := last.done[cells-1]
		rc.set("sched.tail_ms", "ms", float64(end.Sub(last.done[cells-nproc-1]))/1e6)
		var idle time.Duration
		for k := 1; k < nproc; k++ {
			idle += end.Sub(last.done[cells-1-k])
		}
		capacity := end.Sub(last.start) * time.Duration(nproc)
		rc.set("sched.busy_frac", "ratio", 1-float64(idle)/float64(capacity))
	}
	return rc.replayTable41(suite, last.x)
}

// checkTable41 checks a rendered table against the golden for the seed and
// against the suite's exact optimum, and replays a few cells.
func (rc *runCtx) checkTable41(run *tableRun, optimal int) {
	if err := rc.checkGoldenText(run.text); err != nil {
		rc.check(false, "golden: %v", err)
	}
	text := string(run.text)
	rc.check(strings.HasPrefix(text, "Table 4.1 — GOLA, random starts, Figure 1\n"), "table title missing")
	_, optRow, _ := strings.Cut(text, "\n(optimal)")
	optRow, _, _ = strings.Cut(optRow, "\n")
	rc.check(len(strings.Fields(optRow)) == len(run.x.Budgets) && strings.Count(optRow, fmt.Sprint(optimal)) == len(run.x.Budgets),
		"optimal row %q does not read the exact optimum %d", optRow, optimal)
	x := run.x
	for m := range x.MethodNames {
		for b := range x.Budgets {
			r := x.Reduction(m, b)
			rc.check(r >= 0 && r <= optimal, "%s at budget %d: reduction %d outside [0, optimal %d]", x.MethodNames[m], x.Budgets[b], r, optimal)
		}
	}
	suite := experiment.NewSuite(experiment.GOLAParams(), rc.seed)
	methods := experiment.AllMethods(experiment.GOLAScale(), experiment.TunedGOLA)
	r := rng.Derive("perfbench/table41/check", rc.seed, 0)
	for k := 0; k < 8; k++ {
		m, b, i := r.IntN(len(methods)), r.IntN(len(x.Budgets)), r.IntN(suite.Size())
		got, _, _ := replayCell(suite, methods[m], x.Budgets[b], i, rc.seed, nil)
		rc.check(got == x.BestDensities[m][b][i], "cell (%s, %d, %d): replay %d, table %d", methods[m].Name, x.Budgets[b], i, got, x.BestDensities[m][b][i])
	}
}

// replayCell re-runs one Table 4.1 cell through linarr and core exactly as
// experiment.Run does, optionally timing the kernel.
func replayCell(suite *experiment.Suite, m experiment.Method, budget int64, inst int, seed uint64, clock *layerClock) (int, core.Result, time.Duration) {
	var sol core.Solution = linarr.NewSolution(suite.Start(inst), 0)
	if clock != nil {
		sol = timedSol{sol, clock}
	}
	label := fmt.Sprintf("run/%s/%s/%s/%d", suite.Name, m.Name, m.Strategy, budget)
	t0 := time.Now()
	res := core.Figure1{G: m.NewG(suite.Netlists[inst])}.Run(sol, core.NewBudget(budget), rng.Derive(label, seed, uint64(inst)))
	return int(res.BestCost), res, time.Since(t0)
}

// replayTable41 replays every cell of a few instances with timing wrappers
// and reports the kernel and engine layers.
func (rc *runCtx) replayTable41(suite *experiment.Suite, x *experiment.Matrix) error {
	methods := experiment.AllMethods(experiment.GOLAScale(), experiment.TunedGOLA)
	var clock layerClock
	var wall time.Duration
	var moves, accepted int64
	r := rng.Derive("perfbench/table41/replay", rc.seed, 0)
	root := rc.tr.start("replay", "replay", 0)
	for k := 0; k < 3; k++ {
		i := r.IntN(suite.Size())
		for m := range methods {
			for b, budget := range x.Budgets {
				got, res, d := replayCell(suite, methods[m], budget, i, rc.seed, &clock)
				rc.check(got == x.BestDensities[m][b][i], "replayed cell (%s, %d, %d): %d, table %d", methods[m].Name, budget, i, got, x.BestDensities[m][b][i])
				wall += d
				moves += res.Moves
				accepted += res.Accepted
			}
		}
	}
	rc.tr.end(root)
	rc.set("linarr.propose_ns", "ns", perCall(clock.propose.Load(), clock.proposeN.Load()))
	rc.set("linarr.apply_ns", "ns", perCall(clock.apply.Load(), clock.applyN.Load()))
	rc.set("linarr.allocs_per_move", "count", kernelAllocsPerMove(linarr.NewSolution(suite.Start(0), 0), rc.seed))
	rc.set("core.self_ns_per_move", "ns", clock.engineSelf(wall, moves))
	rc.set("core.moves", "count", float64(moves))
	rc.set("core.accept_ratio", "ratio", float64(accepted)/float64(moves))
	return nil
}
