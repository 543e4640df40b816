package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbpsim/internal/chaos"
)

// bigBody is a request whose budget takes minutes uncanceled — the prop for
// every cancellation test. The seed keeps it distinct from other tests'
// cache keys.
const bigBody = `{"benchmarks": ["mcf-like", "gcc-like"], "seed": 7001, "warmup": 0, "measure": 500000000}`

// errorDoc is the structured error envelope every non-2xx response carries.
type errorDoc struct {
	ID     string    `json:"id"`
	Status string    `json:"status"`
	Error  *APIError `json:"error"`
}

func decodeErrorDoc(t *testing.T, data []byte) errorDoc {
	t.Helper()
	var doc errorDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("error body is not the structured schema: %v: %s", err, data)
	}
	return doc
}

// TestSyncTimeoutCancelsAbandonedRun pins the headline cancellation
// contract: a sync request that times out as the run's only waiter cancels
// the run, the worker slot frees within one scheduler quantum, and the job
// records the structured canceled terminal state plus the
// runs_canceled_total increment.
func TestSyncTimeoutCancelsAbandonedRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	resp, data := postPath(t, ts.URL+"/v1/runs?timeout=150ms", bigBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out sync run: status %d: %s", resp.StatusCode, data)
	}
	doc := decodeErrorDoc(t, data)
	if doc.Error == nil || doc.Error.Code != CodeTimeout || !doc.Error.Retryable {
		t.Errorf("504 error doc = %s", data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("504 without Retry-After")
	}

	// The single worker must be free again almost immediately: a quick run
	// with a short sync timeout succeeds only if the big run was canceled.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, data = postPath(t, ts.URL+"/v1/runs?timeout=5s", quickBody)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker slot never freed after cancellation: status %d: %s", resp.StatusCode, data)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The canceled job's terminal state is pollable: the ids on a fresh
	// server are sequential, so the abandoned run is run-00000001.
	code, _ := pollStatus(t, ts.URL, "run-00000001")
	if code != http.StatusGatewayTimeout {
		t.Errorf("canceled job poll status %d, want 504", code)
	}
	resp2, err := http.Get(ts.URL + "/v1/runs/run-00000001")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	doc = decodeErrorDoc(t, body)
	if doc.Status != "canceled" || doc.Error == nil || doc.Error.Code != CodeCanceled || !doc.Error.Retryable {
		t.Errorf("canceled job terminal doc = %s", body)
	}

	m := scrapeMetrics(t, ts.URL)
	if m["dbpserved_runs_canceled_total"] < 1 {
		t.Errorf("runs_canceled_total = %v, want >= 1", m["dbpserved_runs_canceled_total"])
	}
	if m["dbpserved_runs_executed_total"] != 1 {
		t.Errorf("runs_executed_total = %v, want 1 (only the quick run)", m["dbpserved_runs_executed_total"])
	}
}

// TestSyncOKIsCounted pins the ordering in finishJob: the terminal
// counters move before the job's waiters wake, so a client holding a 200
// always finds its own run in runs_executed_total. The journal makes the
// old failure deterministic rather than a scheduling accident: its end
// record (an fsync) is written after the waiters wake, and a counter
// updated after that record lagged the response by the fsync.
func TestSyncOKIsCounted(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, JournalDir: t.TempDir()})
	const runs = 8
	for i := 1; i <= runs; i++ {
		resp, data := postRun(t, ts.URL, seededBody(8100+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, data)
		}
		if got := scrapeMetrics(t, ts.URL)["dbpserved_runs_executed_total"]; got != float64(i) {
			t.Fatalf("after %d sync 200s runs_executed_total = %v", i, got)
		}
	}
}

// TestQueuedJobRemovedOnAbandonment pins the satellite fix: a sync request
// whose waiter departs while the job is still queued removes the work — the
// worker discards it un-executed instead of burning a slot on a run nobody
// wants.
func TestQueuedJobRemovedOnAbandonment(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	s, err := New(Options{
		Workers:    1,
		QueueDepth: 4,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.testHookBeforeRun = func() {
		if calls.Add(1) == 1 {
			<-release
		}
	}
	ts := httptest.NewServer(s)
	released := false
	defer func() {
		if !released {
			close(release)
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	}()

	// Job 1 occupies the worker (blocked in the hook). Job 2 sits in the
	// queue; its only waiter gives up after 100ms.
	resp, data := postAsync(t, ts.URL, seededBody(7101))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postPath(t, ts.URL+"/v1/runs?timeout=100ms", seededBody(7102))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("job 2: status %d: %s", resp.StatusCode, data)
	}
	doc := decodeErrorDoc(t, data)
	if doc.Error == nil || doc.Error.Code != CodeTimeout {
		t.Errorf("job 2 timeout doc = %s", data)
	}

	// An identical resubmission must NOT coalesce onto the canceled corpse —
	// it either enqueues fresh (miss) or, still queued behind job 1, is a
	// fresh job. Submit async so it survives to execute after release.
	resp, data = postAsync(t, ts.URL, seededBody(7102))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission: status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("resubmission coalesced onto a canceled job (X-Cache %q, want miss)", got)
	}

	close(release)
	released = true

	// After the release: job 1 executes, canceled job 2 is discarded
	// without executing, the resubmission executes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := scrapeMetrics(t, ts.URL)
		if m["dbpserved_runs_executed_total"] == 2 && m["dbpserved_runs_canceled_total"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			m := scrapeMetrics(t, ts.URL)
			t.Fatalf("executed=%v canceled=%v, want 2/1",
				m["dbpserved_runs_executed_total"], m["dbpserved_runs_canceled_total"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The discarded job (id 2 on this server) reports canceled, and its
	// cancellation cause names abandonment.
	resp2, err := http.Get(ts.URL + "/v1/runs/run-00000002")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	doc = decodeErrorDoc(t, body)
	if doc.Status != "canceled" || doc.Error == nil || doc.Error.Code != CodeCanceled {
		t.Errorf("discarded job doc = %s", body)
	}
	if !strings.Contains(doc.Error.Message, "abandoned") {
		t.Errorf("cancellation message %q does not name abandonment", doc.Error.Message)
	}
}

// TestClientDisconnectCancelsRun pins the disconnect path: tearing down the
// HTTP request (not just letting a timeout fire) abandons the run.
func TestClientDisconnectCancelsRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(bigBody))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the run is admitted, then hang up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := scrapeMetrics(t, ts.URL); m["dbpserved_cache_misses_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected request reported success")
	}

	// The abandoned run must be canceled and the worker freed.
	for {
		if m := scrapeMetrics(t, ts.URL); m["dbpserved_runs_canceled_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnect never canceled the run")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, data := postPath(t, ts.URL+"/v1/runs?timeout=10s", quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker not reusable after disconnect: status %d: %s", resp.StatusCode, data)
	}
}

// TestExecutionCapCancelsRunaway pins the server-side execution cap: a run
// exceeding Options.RunTimeout is canceled on the worker — no waiter
// involved — and lands as a canceled job with code "timeout".
func TestExecutionCapCancelsRunaway(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, RunTimeout: 300 * time.Millisecond})

	resp, data := postAsync(t, ts.URL, bigBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		code, status := pollStatus(t, ts.URL, acc.ID)
		if code == http.StatusGatewayTimeout && status == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runaway run never canceled (status %d %q)", code, status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp2, err := http.Get(ts.URL + "/v1/runs/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	doc := decodeErrorDoc(t, body)
	if doc.Error == nil || doc.Error.Code != CodeTimeout || !doc.Error.Retryable {
		t.Errorf("execution-cap doc = %s", body)
	}
	// The quick run fits comfortably inside the cap: the slot is usable.
	resp, data = postPath(t, ts.URL+"/v1/runs?timeout=250ms", quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quick run after cap: status %d: %s", resp.StatusCode, data)
	}
}

// TestPanicIsolation pins panic containment: an injected worker panic
// becomes a failed job with the structured "panic" error, increments
// runs_panicked_total, and leaves the daemon fully serviceable — /healthz
// stays 200 and the next simulation succeeds on the same worker.
func TestPanicIsolation(t *testing.T) {
	inj, err := chaos.Parse("panic=2")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Chaos: inj})

	// Visit 1: no panic.
	resp, data := postRun(t, ts.URL, seededBody(7201))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run 1: status %d: %s", resp.StatusCode, data)
	}
	// Visit 2: the injected panic. The sync waiter gets the failure doc.
	resp, data = postRun(t, ts.URL, seededBody(7202))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked run: status %d: %s", resp.StatusCode, data)
	}
	doc := decodeErrorDoc(t, data)
	if doc.Status != "failed" || doc.Error == nil || doc.Error.Code != CodePanic || doc.Error.Retryable {
		t.Errorf("panic doc = %s", data)
	}
	// Visit 3 (the schedule fires on every 2nd visit, so this one is
	// clean): resubmitting the panicked request must rerun it for real —
	// a panic never poisons the cache — and proves the same worker
	// survived the panic.
	resp, data = postRun(t, ts.URL, seededBody(7202))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmitted panicked run: status %d: %s", resp.StatusCode, data)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: %d", hresp.StatusCode)
	}
	m := scrapeMetrics(t, ts.URL)
	if m["dbpserved_runs_panicked_total"] != 1 {
		t.Errorf("runs_panicked_total = %v, want 1", m["dbpserved_runs_panicked_total"])
	}
	if m["dbpserved_runs_failed_total"] != 1 {
		t.Errorf("runs_failed_total = %v, want 1 (panic counts as failed)", m["dbpserved_runs_failed_total"])
	}
	if m["dbpserved_runs_executed_total"] != 2 {
		t.Errorf("runs_executed_total = %v, want 2", m["dbpserved_runs_executed_total"])
	}
}

// TestJournalSurvivesRestart pins the durability contract end to end in
// process: a finished async job stays pollable (byte-identical ledger) on a
// second server over the same journal dir, an interrupted job is requeued
// at its original id and runs to completion (from cycle 0 here — the crash
// hit before the first checkpoint interval), the restored result re-seeds
// the content-addressed cache, and new job ids never collide with restored
// ones.
func TestJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	var calls atomic.Int64

	a, err := New(Options{
		Workers:    1,
		JournalDir: dir,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.testHookBeforeRun = func() {
		if calls.Add(1) == 2 {
			<-release // job 2 "crashes": submit journaled, end never written
		}
	}
	tsA := httptest.NewServer(a)
	released := false
	defer func() {
		if !released {
			close(release)
		}
		tsA.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = a.Close(ctx)
	}()

	// Job 1 runs to completion; keep its ledger bytes.
	resp, data := postAsync(t, tsA.URL, seededBody(7301))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	doneID := acc.ID
	var ledger []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp2, err := http.Get(tsA.URL + "/v1/runs/" + doneID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode == http.StatusOK {
			ledger = body
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Job 2 starts and "crashes" mid-run (hook blocks the worker forever,
	// from the journal's point of view the process died here).
	resp, data = postAsync(t, tsA.URL, seededBody(7302))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	lostID := acc.ID
	for calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("job 2 never reached the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// "Restart": a second server over the same journal directory.
	b, err := New(Options{
		Workers:    1,
		JournalDir: dir,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(b)
	defer func() {
		tsB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = b.Close(ctx)
	}()

	// Finished job: identical ledger from the result store.
	resp2, err := http.Get(tsB.URL + "/v1/runs/" + doneID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restored job poll: status %d: %s", resp2.StatusCode, body)
	}
	if !bytes.Equal(body, ledger) {
		t.Error("restored ledger differs from the originally served bytes")
	}

	// Interrupted job: requeued under its original id and re-executed to a
	// real ledger (the journaled submit record carried the request body).
	var lostLedger []byte
	for {
		resp2, err = http.Get(tsB.URL + "/v1/runs/" + lostID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode == http.StatusOK {
			lostLedger = body
			break
		}
		if resp2.StatusCode != http.StatusAccepted {
			t.Fatalf("requeued job poll: status %d: %s", resp2.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("requeued job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Contains(lostLedger, []byte(`"schema_version"`)) {
		t.Errorf("requeued job ledger looks wrong: %.120s", lostLedger)
	}

	// The finished result also re-seeds the cache: same request, zero new
	// simulations, byte-identical answer.
	resp, data = postRun(t, tsB.URL, seededBody(7301))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored cache hit: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("restored result X-Cache %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data, ledger) {
		t.Error("restored cache hit differs from the original ledger")
	}
	m := scrapeMetrics(t, tsB.URL)
	if m["dbpserved_runs_executed_total"] != 1 {
		t.Errorf("runs_executed_total = %v, want 1 (only the requeued job re-ran)", m["dbpserved_runs_executed_total"])
	}
	if m["dbpserved_restored_jobs"] < 2 {
		t.Errorf("restored_jobs = %v, want >= 2", m["dbpserved_restored_jobs"])
	}

	// New ids on the restarted server continue past the restored sequence.
	resp, data = postAsync(t, tsB.URL, seededBody(7303))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart submit: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == doneID || acc.ID == lostID {
		t.Errorf("post-restart id %q collides with a restored job", acc.ID)
	}
	close(release)
	released = true
}

// TestJournalFaultsDegradeGracefully pins the durability layer's failure
// mode: journal-append and result-store faults never fail a request — the
// in-memory path still answers — and each fault is counted.
func TestJournalFaultsDegradeGracefully(t *testing.T) {
	inj, err := chaos.Parse("journal=1,result-write=1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, JournalDir: t.TempDir(), Chaos: inj})

	resp, data := postRun(t, ts.URL, seededBody(7401))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with broken journal: status %d: %s", resp.StatusCode, data)
	}
	resp, _ = postRun(t, ts.URL, seededBody(7401))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("in-memory cache degraded: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	m := scrapeMetrics(t, ts.URL)
	if m["dbpserved_journal_errors_total"] < 2 {
		t.Errorf("journal_errors_total = %v, want >= 2 (append + result write)", m["dbpserved_journal_errors_total"])
	}
}

// TestRestoredResultReadFaultReruns pins the disk-cache read path: when a
// journal-restored result cannot be read back (injected I/O error), the
// request degrades to a cache miss and re-simulates instead of erroring.
func TestRestoredResultReadFaultReruns(t *testing.T) {
	dir := t.TempDir()
	// Populate the journal with one finished run.
	a, err := New(Options{
		Workers:    1,
		JournalDir: dir,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a)
	resp, ledger := postRun(t, tsA.URL, seededBody(7402))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run: status %d", resp.StatusCode)
	}
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = a.Close(ctx)

	inj, err := chaos.Parse("result-read=1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir, Chaos: inj})
	// Visit 1 fires the read fault → miss → fresh simulation, identical
	// bytes (determinism) but X-Cache: miss.
	resp, data := postRun(t, ts.URL, seededBody(7402))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rerun after read fault: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("X-Cache %q, want miss (disk read faulted)", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data, ledger) {
		t.Error("rerun ledger differs from the journaled one (determinism broken)")
	}
	m := scrapeMetrics(t, ts.URL)
	if m["dbpserved_journal_errors_total"] < 1 {
		t.Errorf("journal_errors_total = %v, want >= 1", m["dbpserved_journal_errors_total"])
	}
}

// TestTimeoutParamValidation pins the ?timeout= error path: malformed or
// non-positive durations are 400s with the structured schema.
func TestTimeoutParamValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, v := range []string{"banana", "-5s", "0s", "5"} {
		resp, data := postPath(t, ts.URL+"/v1/runs?timeout="+v, quickBody)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout=%q: status %d: %s", v, resp.StatusCode, data)
			continue
		}
		doc := decodeErrorDoc(t, data)
		if doc.Error == nil || doc.Error.Code != CodeBadRequest || doc.Error.Retryable {
			t.Errorf("timeout=%q: error doc = %s", v, data)
		}
	}
}

// TestMalformedBodiesReturnStructured400 is the table-driven sweep over
// broken POST /v1/runs bodies: every one must map to a structured
// bad_request document, never a 500 or a panic.
func TestMalformedBodiesReturnStructured400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `not json at all`},
		{"json array", `[1, 2, 3]`},
		{"json string", `"W8-M1"`},
		{"wrong type", `{"mix": 5}`},
		{"negative warmup", `{"mix": "W4-M1", "warmup": -1}`},
		{"no workload", `{}`},
		{"empty benchmarks", `{"benchmarks": []}`},
		{"unknown benchmark", `{"benchmarks": ["ghost-like", "gcc-like"]}`},
		{"unknown field", `{"mix": "W4-M1", "turbo": true}`},
		{"trailing document", `{"mix": "W4-M1"}{"mix": "W4-M1"}`},
		{"bad config type", `{"mix": "W4-M1", "config": {"Geometry": "wide"}}`},
		{"unknown config field", `{"mix": "W4-M1", "config": {"NoSuchKnob": 1}}`},
		{"bad scheduler", `{"mix": "W4-M1", "scheduler": "lottery"}`},
		{"bad partition", `{"mix": "W4-M1", "partition": "thirds"}`},
		{"zero measure only", `{"mix": "W99-nope", "measure": 0}`},
	}
	for _, c := range cases {
		resp, data := postRun(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", c.name, resp.StatusCode, data)
			continue
		}
		doc := decodeErrorDoc(t, data)
		if doc.Error == nil || doc.Error.Code != CodeBadRequest || doc.Error.Message == "" || doc.Error.Retryable {
			t.Errorf("%s: error doc = %s", c.name, data)
		}
	}
	// The daemon is still healthy after the abuse.
	resp, _ := postRun(t, ts.URL, quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthy run after malformed sweep: status %d", resp.StatusCode)
	}
}

// TestDrainDeadlineCancelsInFlight pins forced drain: when Close's context
// expires before in-flight simulations finish, they are canceled at the
// next scheduler quantum and Close still returns promptly.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s, err := New(Options{
		Workers:    1,
		QueueDepth: 4,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, data := postAsync(t, ts.URL, bigBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("big run: status %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, status := pollStatus(t, ts.URL, acc.ID); status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("big run never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("forced drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	// The interrupted run is recorded canceled, not lost.
	code, status := pollStatus(t, ts.URL, acc.ID)
	if code != http.StatusGatewayTimeout || status != "canceled" {
		t.Errorf("drain-canceled job: status %d %q, want 504 canceled", code, status)
	}
}

// TestChaosDelayIsCancelable pins the injected-delay fault point: a delayed
// run still honours cancellation during the sleep.
func TestChaosDelayIsCancelable(t *testing.T) {
	inj, err := chaos.Parse("delay=30s")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, Chaos: inj})
	start := time.Now()
	resp, data := postPath(t, ts.URL+"/v1/runs?timeout=100ms", seededBody(7501))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("delayed run: status %d: %s", resp.StatusCode, data)
	}
	// The abandoned delay must be interrupted, freeing the worker long
	// before the 30s sleep would end.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := scrapeMetrics(t, ts.URL); m["dbpserved_runs_canceled_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delayed run never canceled")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if time.Since(start) > 15*time.Second {
		t.Error("cancellation did not interrupt the injected delay")
	}
}
