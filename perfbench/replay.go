package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcopt/internal/core"
	"mcopt/internal/gfunc"
	"mcopt/internal/metrics"
	"mcopt/internal/obs"
	"mcopt/internal/rng"
	"mcopt/problem"
)

// The replay re-runs a workload's cells or replicas through the public
// problem/core surfaces with timing wrappers on the Solution and on the
// hook Tee, since those calls are internal to experiment.Run and mcoptd.
// The replayed trajectories must equal the workload's own results; the
// workloads check that.

// layerClock accumulates time spent in the kernel and in the hooks. Atomic,
// because tempering steps chains on several goroutines.
type layerClock struct {
	propose, proposeN atomic.Int64
	apply, applyN     atomic.Int64
	hook, hookN       atomic.Int64
}

// timedSol times Propose and Apply of the wrapped Solution. Clones share
// the clock, so tempering's per-chain copies are timed too.
type timedSol struct {
	core.Solution
	c *layerClock
}

type timedMove struct {
	core.Move
	c *layerClock
}

func (s timedSol) Propose(r *rand.Rand) core.Move {
	t0 := time.Now()
	m := s.Solution.Propose(r)
	s.c.propose.Add(int64(time.Since(t0)))
	s.c.proposeN.Add(1)
	return timedMove{m, s.c}
}

func (s timedSol) Clone() core.Solution { return timedSol{s.Solution.Clone(), s.c} }

func (m timedMove) Apply() {
	t0 := time.Now()
	m.Move.Apply()
	m.c.apply.Add(int64(time.Since(t0)))
	m.c.applyN.Add(1)
}

// unwrap returns the kernel's own Solution behind a timing wrapper.
func unwrap(s core.Solution) core.Solution {
	if t, ok := s.(timedSol); ok {
		return t.Solution
	}
	return s
}

// timedHook wraps a hook so its time is charged to the hooks layer.
func (c *layerClock) timedHook(h core.Hook) core.Hook {
	if h == nil {
		return nil
	}
	return func(e core.Event) {
		t0 := time.Now()
		h(e)
		c.hook.Add(int64(time.Since(t0)))
		c.hookN.Add(1)
	}
}

// clocks measures, once per process, what a timed interval costs: the
// duration an empty interval reads (subtracted from every measured
// interval) and the wall cost of taking one (charged to the wrapper, not
// the engine, when computing engine self time).
var clocks = sync.OnceValue(func() clockCosts {
	const n = 200_000
	var sum time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		sum += time.Since(s)
	}
	return clockCosts{empty: float64(sum) / n, pair: float64(time.Since(t0)) / n}
})

type clockCosts struct{ empty, pair float64 }

// perCall returns the mean interval per call with the empty-interval
// reading removed.
func perCall(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return max(float64(total)/float64(n)-clocks().empty, 0)
}

// engineSelf is engine Run wall time minus kernel and hook time (and the
// wrappers' own clock reads), per move.
func (c *layerClock) engineSelf(wall time.Duration, moves int64) float64 {
	if moves == 0 {
		return 0
	}
	calls := c.proposeN.Load() + c.applyN.Load() + c.hookN.Load()
	inner := float64(c.propose.Load()+c.apply.Load()+c.hook.Load()) - float64(calls)*clocks().empty
	wrap := float64(calls) * (clocks().pair - clocks().empty)
	return max((float64(wall)-inner-wrap)/float64(moves), 0)
}

// kernelAllocsPerMove runs a propose/apply loop on sol (no engine, no
// hooks) and returns heap allocations per move: the kernel's own share.
func kernelAllocsPerMove(sol core.Solution, seed uint64) float64 {
	const n = 20_000
	r := rng.Derive("perfbench/allocs", seed, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if m := sol.Propose(r); m.Delta() <= 0 {
			m.Apply()
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// jobSpec mirrors the normalized spec echoed in an mcoptd result envelope.
type jobSpec struct {
	Problem       problem.Spec `json:"problem"`
	Strategy      string       `json:"strategy,omitempty"`
	Chains        int          `json:"chains,omitempty"`
	ExchangeEvery int64        `json:"exchange_every,omitempty"`
	Batch         int          `json:"batch,omitempty"`
	G             string       `json:"g,omitempty"`
	Ys            []float64    `json:"ys,omitempty"`
	Budget        int64        `json:"budget,omitempty"`
	Runs          int          `json:"runs,omitempty"`
	Seed          uint64       `json:"seed,omitempty"`
}

// compile resolves a spec's problem through the registry, as mcoptd does.
func compile(spec *jobSpec) (*problem.Instance, error) {
	def, ok := problem.Lookup(spec.Problem.Kind)
	if !ok {
		return nil, fmt.Errorf("kind %q is not registered", spec.Problem.Kind)
	}
	return def.Compile(&spec.Problem, spec.Seed)
}

// replica is the part of an envelope's per-run record the replay can
// reproduce exactly.
type replica struct {
	Run               int     `json:"run"`
	InitialCost       float64 `json:"initial_cost"`
	BestCost          float64 `json:"best_cost"`
	FinalCost         float64 `json:"final_cost"`
	Moves             int64   `json:"moves"`
	Accepted          int64   `json:"accepted"`
	Uphill            int64   `json:"uphill"`
	Improvements      int64   `json:"improvements"`
	Exchanges         int64   `json:"exchanges,omitempty"`
	ExchangesAccepted int64   `json:"exchanges_accepted,omitempty"`
	Solution          []int   `json:"solution"`
}

// envelope is the slice of result.json the benchmark reads.
type envelope struct {
	Spec jobSpec   `json:"spec"`
	Runs []replica `json:"runs"`
}

// replayOpts selects what a replica replay measures.
type replayOpts struct {
	clock   *layerClock // nil = untimed
	hooks   bool        // put the service's per-replica hook Tee on the engine
	workers int         // tempering chain workers (0 = GOMAXPROCS, as mcoptd)
}

// replayReplica recomputes replica i of a job spec through problem and
// core the way mcoptd's replica computation does: compiled instance, the
// class's default schedule for the instance's scale, and the replica's
// derived stream. It returns the replica record and the engine wall time.
func replayReplica(spec *jobSpec, i int, o replayOpts) (replica, time.Duration, error) {
	inst, err := compile(spec)
	if err != nil {
		return replica{}, 0, err
	}
	b, ok := gfunc.ByName(spec.G)
	if !ok {
		return replica{}, 0, fmt.Errorf("unknown g class %q", spec.G)
	}
	ys := spec.Ys
	if b.NeedsY && len(ys) == 0 {
		ys = b.DefaultYs(inst.Scale)
	}
	g := b.Build(ys)
	var sol core.Solution = inst.NewSolution(i)
	var hook core.Hook
	if o.hooks {
		hook = serviceHookTee(i)
	}
	if o.clock != nil {
		sol = timedSol{sol, o.clock}
		hook = o.clock.timedHook(hook)
	}
	budget := core.NewBudget(spec.Budget)
	stream := rng.Derive("service/run/"+spec.Strategy+"/"+spec.G, spec.Seed, uint64(i))
	t0 := time.Now()
	var res core.Result
	switch spec.Strategy {
	case "tempering":
		res = core.Tempering{
			G: g, Chains: spec.Chains, ExchangeEvery: spec.ExchangeEvery,
			Temps: core.TemperingLadder(ys, spec.Chains), Batch: spec.Batch,
			Workers: o.workers, Hook: hook,
		}.Run(sol, budget, stream)
	case "fig1":
		res = core.Figure1{G: g, Batch: spec.Batch, Hook: hook}.Run(sol, budget, stream)
	default:
		return replica{}, 0, fmt.Errorf("replay does not cover strategy %q", spec.Strategy)
	}
	wall := time.Since(t0)
	return replica{
		Run: i, InitialCost: res.InitialCost, BestCost: res.BestCost, FinalCost: res.FinalCost,
		Moves: res.Moves, Accepted: res.Accepted, Uphill: res.Uphill, Improvements: res.Improvements,
		Exchanges: res.Exchanges, ExchangesAccepted: res.ExchangesAccepted,
		Solution: inst.Encode(unwrap(res.Best)),
	}, wall, nil
}

// serviceHookTee builds the observer set mcoptd puts on every replica: the
// per-job RunMetrics aggregate, the /metrics engine collector, and the
// event-stream bridge that encodes streamed events as NDJSON records.
func serviceHookTee(i int) core.Hook {
	var rm metrics.RunMetrics
	collector := metrics.NewEngineCollector(obs.NewRegistry())
	run := fmt.Sprintf("run@%d", i)
	return metrics.Tee(rm.Hook(), collector.Hook(), func(e core.Event) {
		switch e.Kind {
		case core.EventStart, core.EventLevel, core.EventBest, core.EventDescent, core.EventExchange, core.EventEnd:
			sink = metrics.RecordOf(run, e)
		}
	})
}

// sink keeps the stream bridge's records alive so the compiler cannot drop
// their construction.
var sink metrics.Record
