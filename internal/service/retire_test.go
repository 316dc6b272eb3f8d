package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcopt/internal/archive"
	"mcopt/internal/faultinject"
)

// archiveConfig is the fast-retirement config the tests use: terminal jobs
// become eligible immediately and the sweep runs every few milliseconds.
func archiveConfig(t *testing.T) Config {
	dir := t.TempDir()
	return Config{
		Dir:            dir,
		ArchiveDir:     filepath.Join(dir, "archive"),
		RetireInterval: 5 * time.Millisecond,
	}
}

// getStatusGone reports whether the job API answers 404 for id.
func getStatusGone(ts *httptest.Server, id string) bool {
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusNotFound
}

// waitRetired polls until the job API answers 404 for the job and the
// archive holds its record. It waits on the API, not on the directory: the
// directory is deleted after the job leaves the live tables.
func waitRetired(t *testing.T, m *Manager, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if getStatusGone(ts, id) && m.arch.Has(id) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never retired (status gone: %v, archived: %v)",
				id, getStatusGone(ts, id), m.arch.Has(id))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRetirementArchivesTerminalJobs(t *testing.T) {
	// A RetireAge of one second keeps the done job visible long enough for
	// the status poll; retirement follows right after.
	cfg := archiveConfig(t)
	cfg.RetireAge = time.Second
	m, ts := testServer(t, cfg)
	spec := `{"problem":{"kind":"gola","cells":12,"nets":60},"g":"Metropolis","budget":600,"runs":2,"seed":7}`
	id, _ := submit(t, ts, spec, "retire-key")
	st := waitState(t, ts, id, StateDone)
	if st.BestCost == nil {
		t.Fatal("done job has no best cost")
	}
	waitRetired(t, m, ts, id)

	// The job is gone from the live API...
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status of retired job: %d, want 404", resp.StatusCode)
	}
	// ...its idempotency key is free again...
	id2, code := submit(t, ts, smallSpec(), "retire-key")
	if code != http.StatusCreated || id2 == id {
		t.Fatalf("resubmit after retirement: code %d id %s", code, id2)
	}
	// ...and the archived record carries the job's full story.
	recs, err := m.arch.Records(archive.Filter{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rec *archive.Record
	for _, r := range recs {
		if r.ID == id {
			rec = r
		}
	}
	if rec == nil {
		t.Fatalf("job %s not in archive scan", id)
	}
	if rec.Kind != "gola" || rec.State != "done" || rec.Budget != 600 || rec.Runs != 2 {
		t.Fatalf("record headline fields wrong: %+v", rec)
	}
	if rec.BestCost != *st.BestCost {
		t.Fatalf("record best cost %v, status said %v", rec.BestCost, *st.BestCost)
	}
	if len(rec.FinalCosts) != 2 {
		t.Fatalf("final costs per replica missing: %v", rec.FinalCosts)
	}
	if len(rec.Ys) != 1 || rec.Ys[0] <= 0 {
		t.Fatalf("resolved schedule missing from record (Metropolis defaults its one Y from the instance scale): %v", rec.Ys)
	}
	if rec.RunMillis <= 0 {
		t.Fatal("run duration missing from record")
	}
	var res Result
	if err := json.Unmarshal(rec.Envelope, &res); err != nil || res.BestCost != rec.BestCost {
		t.Fatalf("envelope is not the result artifact: %v", err)
	}
}

func TestRetirementCoversFailedAndCancelled(t *testing.T) {
	cfg := archiveConfig(t)
	cfg.RetireAge = 300 * time.Millisecond // let status polls see the terminal state first
	m, ts := testServer(t, cfg)
	// A spec that compiles but fails at run time: fig2 on a solution type
	// without descent support would be rejected at validation, so instead
	// inject a run failure.
	faultinject.Set("checkpoint.append:1:error")
	defer faultinject.Reset()
	failID, _ := submit(t, ts, smallSpec(), "")
	waitState(t, ts, failID, StateFailed)

	cancelID, _ := submit(t, ts, slowSpec(), "")
	waitState(t, ts, cancelID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+cancelID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}

	waitRetired(t, m, ts, failID)
	waitRetired(t, m, ts, cancelID)
	recs, err := m.arch.Records(archive.Filter{State: "failed"}, 0)
	if err != nil || len(recs) != 1 || recs[0].ID != failID || recs[0].Error == "" {
		t.Fatalf("failed record: %v, %v", recs, err)
	}
	recs, err = m.arch.Records(archive.Filter{State: "cancelled"}, 0)
	if err != nil || len(recs) != 1 || recs[0].ID != cancelID {
		t.Fatalf("cancelled record: %v, %v", recs, err)
	}
	// Neither carries an envelope: there is no result artifact to keep.
	if len(recs[0].Envelope) != 0 {
		t.Fatalf("cancelled record has an envelope: %s", recs[0].Envelope)
	}
}

func TestRetireAgeDelaysRetirement(t *testing.T) {
	cfg := archiveConfig(t)
	cfg.RetireAge = time.Hour
	m, ts := testServer(t, cfg)
	id, _ := submit(t, ts, smallSpec(), "")
	waitState(t, ts, id, StateDone)
	time.Sleep(50 * time.Millisecond) // several sweep periods
	if !fileExists(m.jobDir(id)) || m.arch.Has(id) {
		t.Fatal("job younger than RetireAge was retired")
	}
	if _, err := m.Result(id); err != nil {
		t.Fatalf("result of un-retired job: %v", err)
	}
}

// TestRetireCrashWindows drives a crash into each window of the retirement
// sequence and proves the restart scan converges to exactly-once: the job
// exists in the directory xor the archive, never both, never neither.
func TestRetireCrashWindows(t *testing.T) {
	cfg := archiveConfig(t)
	cfg.RetireAge = 300 * time.Millisecond // window to observe done and arm the fault
	m, ts := testServer(t, cfg)
	id, _ := submit(t, ts, smallSpec(), "")
	waitState(t, ts, id, StateDone)

	// Window 1: fault between the durable append and the rename. The sweep
	// logs the error and leaves the directory; the archive already holds the
	// record.
	faultinject.Set(faultRetire + ":1:error")
	deadline := time.Now().Add(30 * time.Second)
	for !m.arch.Has(id) {
		if time.Now().After(deadline) {
			t.Fatal("append never happened")
		}
		time.Sleep(2 * time.Millisecond)
	}
	faultinject.Reset()
	// The fault only fired once; with it cleared, the next sweep must
	// converge to the retired state (the append dedups, the delete runs).
	waitRetired(t, m, ts, id)

	// Reopen over the same tree: the restart scan must not resurrect the
	// job or duplicate the record.
	ts.Close()
	stopCtx, cancel := testContext(t)
	m.Stop(stopCtx)
	cancel()
	m2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stopCtx, cancel := testContext(t)
		defer cancel()
		m2.Stop(stopCtx)
	}()
	if _, err := m2.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("retired job resurrected by restart: %v", err)
	}
	recs, err := m2.arch.Records(archive.Filter{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, r := range recs {
		if r.ID == id {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("job %s archived %d times, want exactly once", id, count)
	}

	// Window 2: a .retiring directory left by a crash mid-delete. The scan
	// removes it without touching the archive.
	leftover := m2.jobDir("deadbeef00000000") + retiringSuffix
	if err := os.MkdirAll(leftover, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(leftover, "result.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	stopCtx2, cancel2 := testContext(t)
	m2.Stop(stopCtx2)
	cancel2()
	m3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stopCtx, cancel := testContext(t)
		defer cancel()
		m3.Stop(stopCtx)
	}()
	if fileExists(leftover) {
		t.Fatal(".retiring directory survived the restart scan")
	}

	// Window 3: archived job whose directory survived (crash between append
	// and rename, then a restart). Simulate by planting a terminal job dir
	// whose ID the archive already holds.
	planted := m3.jobDir(id)
	if err := os.MkdirAll(planted, 0o755); err != nil {
		t.Fatal(err)
	}
	env := fmt.Sprintf(`{"id":%q,"seq":99,"spec":{"problem":{"kind":"gola","cells":12,"nets":60}}}`, id)
	if err := os.WriteFile(filepath.Join(planted, specFile), []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(planted, cancelledFile), []byte("cancelled\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stopCtx3, cancel3 := testContext(t)
	m3.Stop(stopCtx3)
	cancel3()
	m4, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stopCtx, cancel := testContext(t)
		defer cancel()
		m4.Stop(stopCtx)
	}()
	if fileExists(planted) {
		t.Fatal("already-archived job directory survived the restart scan")
	}
	if _, err := m4.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatal("already-archived job restored as a live job")
	}
}

func TestArchiveQueryEndpoint(t *testing.T) {
	m, ts := testServer(t, archiveConfig(t))
	var ids []string
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf(`{"problem":{"kind":"gola","cells":12,"nets":60},"budget":600,"runs":1,"seed":%d}`, i+1)
		id, code := submit(t, ts, spec, "")
		if code != http.StatusCreated {
			t.Fatalf("submit: %d", code)
		}
		ids = append(ids, id)
	}
	// Retirement is immediate here, so a done job can 404 before a status
	// poll catches it — wait on the archive, then check the recorded state.
	for _, id := range ids {
		waitRetired(t, m, ts, id)
	}
	recs, err := m.arch.Records(archive.Filter{State: "done"}, 0)
	if err != nil || len(recs) != 3 {
		t.Fatalf("expected 3 done records, got %d (%v)", len(recs), err)
	}

	resp, err := http.Get(ts.URL + "/v1/archive/query?kind=gola&group=kind,g,state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	var sum archive.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Total != 3 || len(sum.Groups) != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	g := sum.Groups[0]
	if g.Kind != "gola" || g.State != "done" || g.Count != 3 || g.Cost == nil {
		t.Fatalf("group: %+v", g)
	}

	// NDJSON records mode.
	resp2, err := http.Get(ts.URL + "/v1/archive/query?records=true&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("records content type %q", ct)
	}
	sc := bufio.NewScanner(resp2.Body)
	lines := 0
	for sc.Scan() {
		var rec archive.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.ID == "" {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("limit=2 returned %d lines", lines)
	}

	// Time-window and filter misses.
	resp3, err := http.Get(ts.URL + "/v1/archive/query?kind=maxcut")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var miss archive.Summary
	if err := json.NewDecoder(resp3.Body).Decode(&miss); err != nil || miss.Total != 0 {
		t.Fatalf("kind miss: %+v, %v", miss, err)
	}
	resp4, err := http.Get(ts.URL + "/v1/archive/query?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %d, want 400", resp4.StatusCode)
	}
}

func TestArchiveQueryDisabled(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/archive/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query without archive: %d, want 404", resp.StatusCode)
	}
}

func TestArchiveRetentionKnobs(t *testing.T) {
	cfg := archiveConfig(t)
	cfg.ArchiveMaxBytes = 1 // force GC to shed every sealed segment
	cfg.ArchiveSegmentBytes = 1024
	m, ts := testServer(t, cfg)
	for i := 0; i < 4; i++ {
		spec := fmt.Sprintf(`{"problem":{"kind":"gola","cells":12,"nets":60},"budget":300,"runs":1,"seed":%d}`, i+1)
		id, _ := submit(t, ts, spec, "")
		// GC may reclaim the record's segment between polls, so wait only
		// for the directory to vanish — retirement happened by then.
		deadline := time.Now().Add(30 * time.Second)
		for fileExists(m.jobDir(id)) || !getStatusGone(ts, id) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never retired", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.arch.Stats().Segments > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("GC never shed sealed segments: %+v", m.arch.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
