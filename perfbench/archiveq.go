package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"mcopt/internal/archive"
	"mcopt/internal/rng"
)

// archive-query: mcoptd opened over a data directory whose archive holds a
// few thousand generated records of all six kinds. One client issues a
// fixed mix of archive queries in a closed loop; every answer is checked
// against an independent computation over the generated records. A second
// client would mostly queue behind the first: Scan holds the archive lock
// for a whole scan, and on two cores the contention made the latency's
// run-to-run spread several times wider.

var archiveKinds = []string{"gola", "nola", "partition", "tsp", "pmedian", "maxcut"}
var archiveGs = []string{"g = 1", "Metropolis", "Six Temperature Annealing", "Linear Diff", "6 Cubic Diff"}

// archiveRounds and archiveSweep shape the seeded archive: rounds of six
// sweeps, one per kind in a seeded order, each sweep a run of records of
// one kind retired 30 s apart. Segments then hold few kinds, so kind and
// time filters can prune them, and every seed gives the queries the same
// amount of work.
const archiveRounds = 4

// genRecords builds the seeded archive contents: archiveRounds rounds of
// six sweeps of sweep records each.
func genRecords(seed uint64, sweep int) []*archive.Record {
	r := rng.Derive("perfbench/archive-query/records", seed, 0)
	base := int64(1_760_000_000)
	budgets := []int64{2400, 8000, 20_000, 100_000}
	recs := make([]*archive.Record, archiveRounds*len(archiveKinds)*sweep)
	order := make([]int, len(archiveKinds))
	for i := range recs {
		s := i / sweep
		if s%len(order) == 0 && i%sweep == 0 {
			rng.Perm(r, order)
		}
		kind := archiveKinds[order[s%len(order)]]
		rec := &archive.Record{
			ID:          fmt.Sprintf("%016x", r.Uint64()),
			Fingerprint: fmt.Sprintf("%016x", r.Uint64()),
			Kind:        kind,
			Size:        15 + r.IntN(400),
			G:           archiveGs[r.IntN(len(archiveGs))],
			Budget:      budgets[r.IntN(len(budgets))],
			Runs:        1 + r.IntN(4),
			Seed:        1 + r.Uint64N(1000),
			ProblemSeed: 1 + r.Uint64N(1000),
			State:       "done",
			Seq:         int64(i + 1),
			RetiredAt:   base + int64(i)*30,
			RunMillis:   int64(5 + r.IntN(2000)),
		}
		switch p := r.Float64(); {
		case p < 0.06:
			rec.State, rec.Error = "failed", "compile: instance too large"
		case p < 0.10:
			rec.State = "cancelled"
		default:
			initial := float64(100 + r.IntN(900))
			for k := 0; k < rec.Runs; k++ {
				rec.FinalCosts = append(rec.FinalCosts, float64(int(initial*(0.5+0.4*r.Float64()))))
			}
			rec.BestCost = rec.FinalCosts[0]
			for _, c := range rec.FinalCosts {
				rec.BestCost = min(rec.BestCost, c)
				rec.Reduction += initial - c
			}
			rec.Envelope = json.RawMessage(fmt.Sprintf(`{"problem":%q,"best_cost":%g,"final_costs":%s,"total_reduction":%g}`,
				rec.Kind, rec.BestCost, floatsJSON(rec.FinalCosts), rec.Reduction))
		}
		recs[i] = rec
	}
	return recs
}

func floatsJSON(v []float64) string {
	b, _ := json.Marshal(v) // []float64 always marshals
	return string(b)
}

// populate writes the records through the archive's public Append, with a
// small segment size so the archive has many sealed, indexed segments.
func populate(dir string, recs []*archive.Record) error {
	a, err := archive.Open(archive.Options{Dir: dir, SegmentBytes: 64 << 10})
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := a.Append(rec); err != nil {
			a.Close()
			return err
		}
	}
	return a.Close()
}

// archiveQuery is one query of the mix with its expected answer.
type archiveQuery struct {
	name   string
	path   string
	filter archive.Filter
	want   any // *archive.Summary or []string (record IDs)
}

// archiveQueries builds the fixed mix: a full-scan summary grouped by
// kind and g, a kind-and-time filtered summary the sparse index can prune,
// and a records page.
func archiveQueries(recs []*archive.Record) []archiveQuery {
	// The last round's first sweep: one sweep's records match.
	late := recs[len(recs)*(archiveRounds-1)/archiveRounds]
	fKind := archive.Filter{Kind: late.Kind, Since: late.RetiredAt}
	page := archive.Filter{Kind: recs[0].Kind, State: "done"}
	var pageIDs []string
	for _, rec := range recs {
		if page.Match(rec) && len(pageIDs) < 50 {
			pageIDs = append(pageIDs, rec.ID)
		}
	}
	return []archiveQuery{
		{"full-summary", "/v1/archive/query?group=kind,g", archive.Filter{}, expectSummary(recs, archive.Filter{})},
		{"pruned-summary", fmt.Sprintf("/v1/archive/query?kind=%s&since=%d", fKind.Kind, fKind.Since), fKind, expectSummary(recs, fKind)},
		{"records-page", fmt.Sprintf("/v1/archive/query?records=true&kind=%s&state=done&limit=50", page.Kind), page, pageIDs},
	}
}

// expectSummary computes a summary grouped by kind and g directly from the
// generated records: the answer the archive must give.
func expectSummary(recs []*archive.Record, f archive.Filter) *archive.Summary {
	type acc struct {
		g           archive.Group
		costs, reds []float64
	}
	groups := map[string]*acc{}
	sum := &archive.Summary{}
	for _, rec := range recs {
		if !f.Match(rec) {
			continue
		}
		sum.Total++
		key := rec.Kind + "\x00" + rec.G + "\x00"
		a := groups[key]
		if a == nil {
			a = &acc{g: archive.Group{Kind: rec.Kind, G: rec.G}}
			groups[key] = a
		}
		a.g.Count++
		if rec.State == "done" {
			a.g.Done++
			a.costs = append(a.costs, rec.BestCost)
			a.reds = append(a.reds, rec.Reduction)
		}
	}
	keys := sortedKeys(groups)
	for _, k := range keys {
		a := groups[k]
		a.g.Cost, a.g.Reduction = quantiles(a.costs), quantiles(a.reds)
		sum.Groups = append(sum.Groups, a.g)
	}
	return sum
}

// quantiles is the archive's documented five-point summary: the value at
// index floor(p·(n−1)) of the sorted sample, plus min, max and mean.
func quantiles(v []float64) *archive.Quantiles {
	if len(v) == 0 {
		return nil
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	total := 0.0
	for _, x := range s {
		total += x
	}
	at := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	return &archive.Quantiles{Min: s[0], P50: at(0.5), P90: at(0.9), P99: at(0.99), Max: s[len(s)-1], Mean: total / float64(len(s))}
}

// checkAnswer compares one HTTP answer with the expected one.
func checkAnswer(q *archiveQuery, body []byte) error {
	switch want := q.want.(type) {
	case *archive.Summary:
		var got archive.Summary
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !reflect.DeepEqual(&got, want) {
			return fmt.Errorf("summary differs: total %d, want %d", got.Total, want.Total)
		}
	case []string:
		var ids []string
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var rec archive.Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return err
			}
			if rec.ID == "" {
				return fmt.Errorf("records page ended with %s", sc.Bytes())
			}
			ids = append(ids, rec.ID)
		}
		if !reflect.DeepEqual(ids, want) {
			return fmt.Errorf("records page: %d IDs, want %d (or order differs)", len(ids), len(want))
		}
	}
	return nil
}

func runArchiveQuery(rc *runCtx) error {
	sweep := 84 // 2016 records
	if rc.tiny {
		sweep = 12
	}
	recs := genRecords(rc.seed, sweep)
	queries := archiveQueries(recs)
	// Population appends every record with an fsync, so its time is the
	// disk's as much as the archive's: it goes to the ledger as
	// archive_populate_s. setup_s is what a user waits for each time the
	// server starts over an existing archive: start to ready, then each
	// query once. It takes a fraction of a second, so the run repeats it
	// and reports the median.
	data := filepath.Join(rc.work, "data")
	t0 := time.Now()
	if err := populate(filepath.Join(data, "archive"), recs); err != nil {
		return err
	}
	rc.named["archive_populate_s"] = time.Since(t0).Seconds()
	var srv *server
	for i := 0; i < 21; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		if err := rc.timeSetup(func() error {
			var err error
			if srv, err = startServer(rc.mcoptd, data); err != nil {
				return err
			}
			for q := range queries { // warm-up: each query once
				if _, err := srv.get(context.Background(), queries[q].path); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			if srv != nil {
				srv.stop()
			}
			return err
		}
	}
	defer srv.stop()

	// One op is a round of the mix: the three queries in turn. The three
	// cost very different amounts, so a median over single queries would
	// jump between them; a round's latency is one steady quantity.
	answers := make([][]byte, len(queries))
	var byQuery []sample
	var single sample // individual query latencies of the untraced phase
	err := rc.phases(func(tr *tracer, seconds float64) (e2e, error) {
		var p e2e
		per := make([]sample, len(queries))
		// Queries that decode full scans set mcoptd's peak heap by chance,
		// so the phase reports its median resident set instead.
		stopRSS := srv.sampleRSS()
		t0, cpu0 := time.Now(), srv.cpu()
		deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
		for k := 0; time.Now().Before(deadline); k++ {
			id := fmt.Sprintf("round-%d", k)
			round := tr.start(id, "round", 0)
			var total time.Duration
			ok := true
			for i := range queries {
				q := &queries[i]
				s := tr.start(id, "query."+q.name, round)
				start := time.Now()
				body, err := srv.get(context.Background(), q.path)
				d := time.Since(start)
				tr.end(s)
				chk := tr.start(id, "check", round)
				if err == nil {
					err = checkAnswer(q, body)
				}
				tr.end(chk)
				total += d
				rc.attempted++
				rc.check(err == nil, "archive query %s: %v", q.name, err)
				if err == nil {
					per[i].add(d)
					if answers[i] == nil {
						answers[i] = body
					}
				}
				ok = ok && err == nil
			}
			tr.end(round)
			if ok {
				p.ops.add(total)
			}
		}
		p.elapsed, p.cpu = time.Since(t0).Seconds(), srv.cpu()-cpu0
		p.rssMB = stopRSS()
		if tr != nil {
			byQuery = per
		} else {
			single = append(append(append(sample{}, per[0]...), per[1]...), per[2]...)
		}
		return p, nil
	})
	if err != nil {
		return err
	}
	rc.named["peak_rss_mb"] = srv.peakRSSMB()
	rc.named["round_p50_ms"] = rc.main.ops.ms(0.5)
	tailName, tail := single.tail()
	rc.named["query_p50_ms"] = single.ms(0.5)
	rc.named["query_"+tailName+"_ms"] = tail / 1e6
	rc.named["query_n"] = float64(len(single))
	rc.named["queries_per_s"] = float64(len(single)) / rc.main.elapsed

	digests := map[string]string{}
	for i, q := range queries {
		if answers[i] != nil {
			digests[q.name] = digest(answers[i])
		}
	}
	if len(digests) == len(queries) {
		if err := rc.checkGoldenDigests(digests); err != nil {
			return err
		}
	}
	if !rc.traced {
		return nil
	}
	return rc.archiveLayers(filepath.Join(data, "archive"), recs, queries, byQuery)
}

// archiveLayers opens the served archive read-only and times Summarize
// directly, so query time splits into archive scan and service overhead.
func (rc *runCtx) archiveLayers(dir string, recs []*archive.Record, queries []archiveQuery, byQuery []sample) error {
	a, err := archive.Open(archive.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		return err
	}
	defer a.Close()
	var direct sample
	for i := 0; i < 7; i++ {
		s := rc.tr.start("direct", "archive.Summarize", 0)
		t0 := time.Now()
		sum, err := a.Summarize(archive.Filter{}, []string{"kind", "g"})
		direct.add(time.Since(t0))
		rc.tr.end(s)
		if err != nil {
			return err
		}
		rc.check(reflect.DeepEqual(sum, queries[0].want), "direct Summarize differs from the expected summary")
	}
	st := a.Stats()
	rc.set("archive.summarize_ms", "ms", direct.ms(0.5))
	rc.set("archive.scan_ns_per_record", "ns", direct.median()/float64(st.Records))
	rc.set("archive.segments", "count", float64(st.Segments))
	rc.set("archive.bytes", "bytes", float64(st.Bytes))
	rc.set("service.query_overhead_ms", "ms", byQuery[0].ms(0.5)-direct.ms(0.5))
	decoded, err := decodedRecords(dir, recs, queries[1].filter)
	if err != nil {
		return err
	}
	if decoded > 0 {
		rc.set("archive.match_ratio", "ratio", float64(queries[1].want.(*archive.Summary).Total)/float64(decoded))
	}
	return nil
}

// decodedRecords counts the records a filtered scan must decode: those in
// segments whose sparse index (kinds, time range) does not rule the filter
// out. The active segment has no index file; its records are the ones no
// sealed index lists.
func decodedRecords(dir string, recs []*archive.Record, f archive.Filter) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if err != nil {
		return 0, err
	}
	sealed := map[string]bool{}
	decoded := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		var idx archive.Index
		if err := json.Unmarshal(data, &idx); err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		for _, id := range idx.IDs {
			sealed[id] = true
		}
		if idx.MaxTime >= f.Since && strings.Contains(","+strings.Join(idx.Kinds, ",")+",", ","+f.Kind+",") {
			decoded += idx.Count
		}
	}
	active, activeMax, activeKind := 0, int64(0), false
	for _, rec := range recs {
		if !sealed[rec.ID] {
			active++
			activeMax = max(activeMax, rec.RetiredAt)
			activeKind = activeKind || rec.Kind == f.Kind
		}
	}
	if activeKind && activeMax >= f.Since {
		decoded += active
	}
	return decoded, nil
}
