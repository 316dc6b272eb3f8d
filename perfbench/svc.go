package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcopt/internal/atomicio"
	"mcopt/internal/checkpoint"
	"mcopt/internal/rng"
	"mcopt/problem"
	_ "mcopt/problem/builtin"
)

// svc-small-maxcut: a closed loop of 2 clients, each submitting a small
// max-cut job, reading its event stream to the final state line and
// fetching the result. Engine work is a small share of a job, so submit,
// persistence, journal fsyncs, commit and streaming dominate.
//
// svc-nola-tempering: a closed loop of 1 client submitting NOLA 400/1200
// tempering jobs (4 chains): the engine and the per-proposal hook Tee
// dominate, and chain-level parallelism is what can use a second core.

// svcSpec is one generated job spec.
type svcSpec struct {
	key  string
	body []byte
	spec jobSpec
}

func genSpecs(rc *runCtx, n int, build func(i int, r func() uint64) jobSpec) ([]svcSpec, error) {
	r := rng.Derive("perfbench/"+rc.workload+"/specs", rc.seed, 0)
	out := make([]svcSpec, n)
	for i := range out {
		spec := build(i, func() uint64 { return 1 + r.Uint64N(1<<20) })
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		out[i] = svcSpec{key: fmt.Sprintf("spec-%d", i), body: body, spec: spec}
	}
	return out, nil
}

func smallMaxcutSpecs(rc *runCtx) ([]svcSpec, error) {
	budget := int64(8000)
	if rc.tiny {
		budget = 2000
	}
	return genSpecs(rc, 4, func(i int, r func() uint64) jobSpec {
		return jobSpec{
			Problem:  problem.Spec{Kind: "maxcut", Cells: 48, Nets: 180, Seed: r()},
			Strategy: "fig1", G: "g = 1", Budget: budget, Runs: 2, Seed: r(),
		}
	})
}

func nolaSpecs(rc *runCtx) ([]svcSpec, error) {
	cells, nets, budget := 400, 1200, int64(100_000)
	if rc.tiny {
		cells, nets, budget = 60, 180, 5000
	}
	return genSpecs(rc, 3, func(i int, r func() uint64) jobSpec {
		return jobSpec{
			Problem:  problem.Spec{Kind: "nola", Cells: cells, Nets: nets, MinPins: 2, MaxPins: 8, Seed: r()},
			Strategy: "tempering", Chains: 4, ExchangeEvery: 256,
			G: "g = 1", Budget: budget, Runs: 2, Seed: r(),
		}
	})
}

func runSmallMaxcut(rc *runCtx) error {
	specs, err := smallMaxcutSpecs(rc)
	if err != nil {
		return err
	}
	return rc.runService(specs, min(2, runtime.NumCPU()), 300)
}

func runNOLATempering(rc *runCtx) error {
	specs, err := nolaSpecs(rc)
	if err != nil {
		return err
	}
	return rc.runService(specs, 1, 6)
}

// jobObs is what the client saw of one job.
type jobObs struct {
	id                       string
	start                    time.Time
	submit, firstEvent, done time.Duration
	resultFetch              time.Duration
	lines                    int
	retries                  int
}

// svcPhase gathers one measured phase's observations.
type svcPhase struct {
	mu       sync.Mutex
	jobs     []jobObs
	attempts int
	retries  int
	rssMB    float64 // mcoptd's peak RSS when the phase's rssJobs-th job completed
}

// svcState is shared across phases: the reference result per spec, the
// first one seen; every later result of the spec must equal it.
type svcState struct {
	mu      sync.Mutex
	results map[string][]byte
}

func (rc *runCtx) runService(specs []svcSpec, clients, rssJobs int) error {
	var srv *server
	for i := 0; i < 25; i++ { // set-up takes milliseconds and is noisy: report the median of 25
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		data := filepath.Join(rc.work, fmt.Sprintf("data-%d", i))
		if err := rc.timeSetup(func() error {
			var err error
			if srv, err = startServer(rc.mcoptd, data); err != nil {
				return err
			}
			// Warm-up: one small job end to end.
			warm, err := smallMaxcutSpecs(rc)
			if err != nil {
				return err
			}
			_, err = runJob(context.Background(), srv, &warm[0])
			return err
		}); err != nil {
			if srv != nil {
				srv.stop()
			}
			return err
		}
	}
	defer srv.stop()

	st := &svcState{results: map[string][]byte{}}
	var traced *svcPhase
	var before []byte
	err := rc.phases(func(tr *tracer, seconds float64) (e2e, error) {
		if tr != nil {
			var err error
			if before, err = srv.get(context.Background(), "/metrics"); err != nil {
				return e2e{}, err
			}
		}
		ph, p := rc.serviceLoop(srv, specs, clients, seconds, tr, st, rssJobs)
		if tr != nil {
			traced = ph
		}
		return p, nil
	})
	if err != nil {
		return err
	}
	rc.named["done_p50_ms"] = rc.main.ops.ms(0.5)
	tailName, tail := rc.main.ops.tail()
	rc.named["done_"+tailName+"_ms"] = tail / 1e6
	rc.named["done_n"] = float64(len(rc.main.ops))
	rc.named["jobs_per_s"] = float64(len(rc.main.ops)) / rc.main.elapsed

	if err := rc.checkServiceResults(specs, st); err != nil {
		return err
	}
	if !rc.traced {
		return nil
	}
	after, err := srv.get(context.Background(), "/metrics")
	if err != nil {
		return err
	}
	return rc.serviceLayers(srv, specs, traced, before, after)
}

// serviceLoop runs the closed loop for the given time and returns the
// phase's observations and end-to-end metrics.
//
// mcoptd keeps every job in memory until retirement (an hour by default),
// so its peak RSS grows with the jobs it has run. The phase reads it after
// a fixed number of jobs, so a faster server does not read as a fatter one.
func (rc *runCtx) serviceLoop(srv *server, specs []svcSpec, clients int, seconds float64, tr *tracer, st *svcState, rssJobs int) (*svcPhase, e2e) {
	ph := &svcPhase{}
	var next int
	var wg sync.WaitGroup
	t0, cpu0 := time.Now(), srv.cpu()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ph.mu.Lock()
				spec := &specs[next%len(specs)]
				next++
				ph.attempts++
				ph.mu.Unlock()
				obs, err := runJob(context.Background(), srv, spec)
				ph.mu.Lock()
				ph.retries += obs.retries
				ph.mu.Unlock()
				if err != nil {
					rc.check(false, "job %s (%s): %v", obs.id, spec.key, err)
					continue
				}
				st.mu.Lock()
				ref, seen := st.results[spec.key]
				if !seen {
					st.results[spec.key] = obs.result
				}
				st.mu.Unlock()
				rc.check(!seen || bytes.Equal(ref, obs.result), "job %s: result differs from the first result of %s", obs.id, spec.key)
				obs.result = nil
				if tr != nil {
					rc.traceJob(srv, tr, &obs.jobObs)
				}
				ph.mu.Lock()
				ph.jobs = append(ph.jobs, obs.jobObs)
				if len(ph.jobs) == rssJobs {
					ph.rssMB = srv.peakRSSMB()
				}
				ph.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var p e2e
	for _, j := range ph.jobs {
		p.ops.add(j.done)
	}
	p.elapsed, p.cpu = time.Since(t0).Seconds(), srv.cpu()-cpu0
	if p.rssMB = ph.rssMB; p.rssMB == 0 {
		p.rssMB = srv.peakRSSMB()
	}
	rc.attempted += ph.attempts
	return ph, p
}

// clientJob is one job's observations plus its result bytes.
type clientJob struct {
	jobObs
	result []byte
}

// runJob submits a spec, reads its event stream to the final state line and
// fetches the result. Refused submits (429/503) are retried with backoff.
func runJob(ctx context.Context, srv *server, spec *svcSpec) (clientJob, error) {
	j := clientJob{jobObs: jobObs{start: time.Now()}}
	var id string
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.base+"/v1/jobs", bytes.NewReader(spec.body))
		if err != nil {
			return j, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := srv.client.Do(req)
		if err != nil {
			return j, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return j, err
		}
		if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && attempt < 20 {
			j.retries++
			time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusCreated {
			return j, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
		}
		var ack struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			return j, fmt.Errorf("submit: %w", err)
		}
		id = ack.ID
		break
	}
	j.id = id
	j.submit = time.Since(j.start)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return j, err
	}
	resp, err := srv.client.Do(req)
	if err != nil {
		return j, err
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if j.lines == 0 {
			j.firstEvent = time.Since(j.start)
		}
		j.lines++
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"type":"state"`)) {
			continue
		}
		var rec struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			resp.Body.Close()
			return j, fmt.Errorf("events: %w", err)
		}
		if rec.State == "done" || rec.State == "failed" || rec.State == "cancelled" {
			state = rec.State
			break
		}
	}
	resp.Body.Close()
	j.done = time.Since(j.start)
	if state != "done" {
		return j, fmt.Errorf("stream ended in state %q (%v)", state, sc.Err())
	}
	t1 := time.Now()
	if j.result, err = srv.get(ctx, "/v1/jobs/"+id+"/result"); err != nil {
		return j, err
	}
	j.resultFetch = time.Since(t1)
	return j, nil
}

// traceJob fetches a finished job's server-side spans and records them
// under the client's job span, offset onto the benchmark's clock.
func (rc *runCtx) traceJob(srv *server, tr *tracer, j *jobObs) {
	root := tr.record(j.id, "job", 0, j.start, j.start.Add(j.done))
	tr.record(j.id, "client.submit", root, j.start, j.start.Add(j.submit))
	tr.record(j.id, "client.first_event", root, j.start, j.start.Add(j.firstEvent))
	data, err := srv.get(context.Background(), "/v1/jobs/"+j.id+"/trace")
	if err != nil {
		rc.check(false, "trace of %s: %v", j.id, err)
		return
	}
	// The server's job span opens when the submit is accepted.
	base := j.start.Add(j.submit)
	ids := map[int64]int64{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s struct {
			Span   int64  `json:"span"`
			Parent int64  `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			Dur    int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(line, &s); err != nil || s.Dur < 0 {
			continue
		}
		parent := root
		if p, ok := ids[s.Parent]; ok {
			parent = p
		}
		start := base.Add(time.Duration(s.Start))
		ids[s.Span] = tr.record(j.id, "mcoptd."+s.Name, parent, start, start.Add(time.Duration(s.Dur)))
	}
}

// checkServiceResults checks each spec's reference result against a replay
// of its replicas and against the committed goldens for the seed.
func (rc *runCtx) checkServiceResults(specs []svcSpec, st *svcState) error {
	digests := map[string]string{}
	for i := range specs {
		sp := &specs[i]
		data, ok := st.results[sp.key]
		if !ok {
			continue // the run was too short to reach this spec
		}
		digests[sp.key] = digest(data)
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			rc.check(false, "%s: result: %v", sp.key, err)
			continue
		}
		rc.check(reflect.DeepEqual(env.Spec, sp.spec), "%s: envelope spec %+v, submitted %+v", sp.key, env.Spec, sp.spec)
		rc.check(len(env.Runs) == sp.spec.Runs, "%s: %d runs in result, want %d", sp.key, len(env.Runs), sp.spec.Runs)
		for r := range env.Runs {
			want, _, err := replayReplica(&sp.spec, r, replayOpts{})
			if err != nil {
				return err
			}
			rc.check(reflect.DeepEqual(env.Runs[r], want), "%s run %d: result %+v, replay %+v", sp.key, r, env.Runs[r], want)
		}
	}
	if len(digests) == len(specs) {
		return rc.checkGoldenDigests(digests)
	}
	return nil
}

// serviceLayers reports the per-layer metrics of a service workload from
// the traced phase, the replay, the data directory and /metrics.
func (rc *runCtx) serviceLayers(srv *server, specs []svcSpec, ph *svcPhase, before, after []byte) error {
	var submit, first, fetch, queue, commit, replicaD, unattr sample
	lines := 0
	for _, j := range ph.jobs {
		submit.add(j.submit)
		first.add(j.firstEvent)
		fetch.add(j.resultFetch)
		lines += j.lines
	}
	byJob := map[string]map[string]time.Duration{}
	rc.tr.mu.Lock()
	for _, s := range rc.tr.spans {
		if byJob[s.Trace] == nil {
			byJob[s.Trace] = map[string]time.Duration{}
		}
		d := time.Duration(s.End - s.Start)
		byJob[s.Trace][s.Name] += d
		switch s.Name {
		case "mcoptd.queue":
			queue.add(d)
		case "mcoptd.commit":
			commit.add(d)
		case "mcoptd.replica":
			replicaD.add(d)
		}
	}
	rc.tr.mu.Unlock()
	for _, j := range ph.jobs {
		m := byJob[j.id]
		if m["mcoptd.run"] > 0 {
			unattr.add(j.done - j.submit - m["mcoptd.queue"] - m["mcoptd.run"])
		}
	}
	n := float64(len(ph.jobs))
	rc.set("service.submit_p50_ms", "ms", submit.ms(0.5))
	rc.set("service.first_event_p50_ms", "ms", first.ms(0.5))
	rc.set("service.result_fetch_p50_ms", "ms", fetch.ms(0.5))
	rc.set("service.queue_p50_ms", "ms", queue.ms(0.5))
	rc.set("service.queue_p99_ms", "ms", queue.ms(0.99))
	rc.set("service.commit_p50_ms", "ms", commit.ms(0.5))
	rc.set("service.replica_p50_ms", "ms", replicaD.ms(0.5))
	rc.set("service.unattributed_p50_ms", "ms", unattr.ms(0.5))
	if ph.attempts > 0 {
		rc.set("service.retried_frac", "ratio", float64(ph.retries)/float64(ph.attempts))
	}
	if n > 0 {
		rc.set("service.stream_lines_per_job", "count", float64(lines)/n)
	}
	proposed := scrapeCounter(after, "mcopt_engine_proposals_total", `decision="proposed"`) - scrapeCounter(before, "mcopt_engine_proposals_total", `decision="proposed"`)
	accepted := scrapeCounter(after, "mcopt_engine_proposals_total", `decision="accepted"`) - scrapeCounter(before, "mcopt_engine_proposals_total", `decision="accepted"`)
	if proposed > 0 {
		rc.set("core.accept_ratio", "ratio", accepted/proposed)
	}
	if err := rc.dataDirLayers(srv, ph); err != nil {
		return err
	}
	return rc.replayServiceLayers(specs)
}

// dataDirLayers walks the traced jobs' directories (files and bytes per
// job) and replays one job's durable writes through checkpoint and
// atomicio with its real bytes.
func (rc *runCtx) dataDirLayers(srv *server, ph *svcPhase) error {
	var files, bytesN int64
	for _, j := range ph.jobs {
		err := filepath.Walk(filepath.Join(srv.data, "jobs", j.id), func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() {
				files++
				bytesN += info.Size()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(ph.jobs) == 0 {
		return nil
	}
	rc.set("service.files_per_job", "count", float64(files)/float64(len(ph.jobs)))
	rc.set("service.bytes_per_job", "bytes", float64(bytesN)/float64(len(ph.jobs)))

	dir := filepath.Join(srv.data, "jobs", ph.jobs[0].id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var artifacts [][]byte
	var walName string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			walName = e.Name()
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		artifacts = append(artifacts, data)
	}
	var payloads [][]byte
	var fp uint64
	if walName != "" {
		hexFP := strings.TrimSuffix(walName[strings.LastIndexByte(walName, '-')+1:], ".wal")
		if fp, err = strconv.ParseUint(hexFP, 16, 64); err != nil {
			return fmt.Errorf("journal name %s: %w", walName, err)
		}
		jr, err := checkpoint.Open(filepath.Join(dir, walName), fp, true)
		if err != nil {
			return err
		}
		err = jr.Restore(jr.Len(), func(slot int, payload []byte) error {
			payloads = append(payloads, append([]byte(nil), payload...))
			return nil
		})
		jr.Close()
		if err != nil {
			return err
		}
	}
	var writes, appends sample
	out := filepath.Join(rc.work, "durable-replay")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for round := 0; round < 10; round++ {
		root := rc.tr.start("durable-replay", "durable", 0)
		for i, data := range artifacts {
			s := rc.tr.start("durable-replay", "atomicio.WriteFile", root)
			t0 := time.Now()
			if err := atomicio.WriteFile(filepath.Join(out, fmt.Sprintf("artifact-%d", i)), data, 0o644); err != nil {
				return err
			}
			writes.add(time.Since(t0))
			rc.tr.end(s)
		}
		if len(payloads) > 0 {
			path := filepath.Join(out, fmt.Sprintf("job-%d.wal", round))
			jr, err := checkpoint.Open(path, fp, false)
			if err != nil {
				return err
			}
			for slot, p := range payloads {
				s := rc.tr.start("durable-replay", "checkpoint.Append", root)
				t0 := time.Now()
				if err := jr.Append(context.Background(), slot, p); err != nil {
					jr.Close()
					return err
				}
				appends.add(time.Since(t0))
				rc.tr.end(s)
			}
			if err := jr.Close(); err != nil {
				return err
			}
		}
		rc.tr.end(root)
	}
	rc.set("atomicio.write_p50_ms", "ms", writes.ms(0.5))
	rc.set("checkpoint.append_p50_ms", "ms", appends.ms(0.5))
	return nil
}

// replayServiceLayers replays every spec's replicas with the service's
// hook Tee and timing wrappers, for the kernel, engine and hook layers.
func (rc *runCtx) replayServiceLayers(specs []svcSpec) error {
	var clock layerClock
	var wall, serial, parallel time.Duration
	var moves, exch, exchOK int64
	kind := specs[0].spec.Problem.Kind
	root := rc.tr.start("replay", "replay", 0)
	for i := range specs {
		sp := &specs[i].spec
		for r := 0; r < sp.Runs; r++ {
			// Chains step serially here (workers 1), so kernel, hook and
			// engine time add up to the replica's wall time.
			res, d, err := replayReplica(sp, r, replayOpts{clock: &clock, hooks: true, workers: 1})
			if err != nil {
				return err
			}
			wall += d
			moves += res.Moves
			exch += res.Exchanges
			exchOK += res.ExchangesAccepted
			if sp.Strategy == "tempering" {
				_, d1, err := replayReplica(sp, r, replayOpts{workers: 1})
				if err != nil {
					return err
				}
				_, dw, err := replayReplica(sp, r, replayOpts{})
				if err != nil {
					return err
				}
				serial += d1
				parallel += dw
			}
		}
	}
	rc.tr.end(root)
	prefix := "linarr"
	if kind == "maxcut" {
		prefix = "maxcut"
	}
	rc.set(prefix+".propose_ns", "ns", perCall(clock.propose.Load(), clock.proposeN.Load()))
	if prefix == "linarr" {
		// Every set-up runs one small max-cut job; replaying it gives the
		// maxcut kernel a measurement on this workload too.
		warm, err := smallMaxcutSpecs(rc)
		if err != nil {
			return err
		}
		var mc layerClock
		for r := 0; r < warm[0].spec.Runs; r++ {
			if _, _, err := replayReplica(&warm[0].spec, r, replayOpts{clock: &mc, hooks: true}); err != nil {
				return err
			}
		}
		rc.set("maxcut.propose_ns", "ns", perCall(mc.propose.Load(), mc.proposeN.Load()))
		rc.set("linarr.apply_ns", "ns", perCall(clock.apply.Load(), clock.applyN.Load()))
		inst, err := compile(&specs[0].spec)
		if err != nil {
			return err
		}
		rc.set("linarr.allocs_per_move", "count", kernelAllocsPerMove(inst.NewSolution(0), rc.seed))
	}
	rc.set("core.self_ns_per_move", "ns", clock.engineSelf(wall, moves))
	rc.set("core.moves", "count", float64(moves))
	rc.set("metrics.hook_ns_per_move", "ns", perCall(clock.hook.Load(), clock.hookN.Load())*float64(clock.hookN.Load())/float64(moves))
	if exch > 0 {
		rc.set("core.tempering.exchange_accept_ratio", "ratio", float64(exchOK)/float64(exch))
	}
	if parallel > 0 {
		w := min(runtime.GOMAXPROCS(0), specs[0].spec.Chains)
		rc.set("core.tempering.step_busy_frac", "ratio", float64(serial)/(float64(parallel)*float64(w)))
	}
	return nil
}
