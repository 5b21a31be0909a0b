package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"specsched"
)

// TestServiceHTTP drives the whole wire API through a real HTTP server:
// submit, live NDJSON streaming, the ?after= resume cursor, SSE framing
// with Last-Event-ID resumption, status with and without the spec echo,
// error mapping, metrics exposition, and health.
func TestServiceHTTP(t *testing.T) {
	spec := testSpec()
	want := runBaseline(t, spec)

	srv, err := New(Config{MaxRunning: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string, hdr ...string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	// do sends a bodiless request and returns the status and error kind.
	do := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e) // a success body has no kind
		return resp.StatusCode, e.Kind
	}

	// Liveness first.
	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// Submission errors map to 400s with machine-matchable kinds.
	for _, tc := range []struct {
		body, kind string
	}{
		{`{"konfigs":["Baseline_0"]}`, "bad_json"}, // unknown field: strict decode
		// The scheduler and time-skip knobs left the wire format.
		{`{"configs":["Baseline_0"],"scheduler":"event"}`, "bad_json"},
		{`{"configs":["Baseline_0"],"timeskip":true}`, "bad_json"},
		{`{"configs":["Baseline_9"]}`, "invalid_config"},
		{`{"configs":["Baseline_0"],"workloads":["nope"]}`, "unknown_workload"},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || apiErr.Kind != tc.kind {
			t.Fatalf("submit %s: %d kind %q, want 400 %q", tc.body, resp.StatusCode, apiErr.Kind, tc.kind)
		}
	}

	// A good submission: 202, a Location header, and a queued/running job.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweeps", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ClientHeader, "curl-test")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" || st.Client != "curl-test" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+st.ID {
		t.Fatalf("Location %q", loc)
	}

	// Live NDJSON stream: the connection opens while the job runs, blocks
	// for new cells, and closes at the terminal state with the full log.
	streamResp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + st.ID + "/cells")
	if err != nil {
		t.Fatal(err)
	}
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	var streamed []CellRecord
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		streamed = append(streamed, rec)
	}
	streamResp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	checkCells(t, "ndjson stream", streamed, want)
	for i, rec := range streamed {
		if rec.Index != i {
			t.Fatalf("stream record %d carries index %d", i, rec.Index)
		}
	}

	// The job is terminal now; status reflects it, with the spec echoed
	// only on request.
	resp2, body := get("/v1/sweeps/" + st.ID)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp2.StatusCode, body)
	}
	var done JobStatus
	if err := json.Unmarshal(body, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || done.DoneCells != len(want) || done.Spec != nil {
		t.Fatalf("status: %+v", done)
	}
	if len(done.Reports) == 0 {
		t.Fatal("done job lists no reports")
	}
	_, body = get("/v1/sweeps/" + st.ID + "?spec=1")
	var withSpec JobStatus
	if err := json.Unmarshal(body, &withSpec); err != nil {
		t.Fatal(err)
	}
	if withSpec.Spec == nil || len(withSpec.Spec.Configs) != len(spec.Configs) {
		t.Fatalf("spec echo: %+v", withSpec.Spec)
	}

	// Resume cursor: ?after=N skips the first N records.
	resp3, body := get(fmt.Sprintf("/v1/sweeps/%s/cells?after=%d", st.ID, len(want)-1))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d", resp3.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Fatalf("resume from %d returned %d records, want 1", len(want)-1, len(lines))
	}
	var last CellRecord
	if err := json.Unmarshal([]byte(lines[0]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Index != len(want)-1 {
		t.Fatalf("resumed record has index %d, want %d", last.Index, len(want)-1)
	}
	if resp4, body := get("/v1/sweeps/" + st.ID + "/cells?after=x"); resp4.StatusCode != http.StatusBadRequest || errBodyKind(t, body) != "bad_cursor" {
		t.Fatalf("bad cursor: %d %s, want 400 bad_cursor", resp4.StatusCode, body)
	}

	// SSE framing: one "cell" event per record with its index as the event
	// id, then a final "done" event carrying the terminal status.
	resp5, body := get("/v1/sweeps/"+st.ID+"/cells", "Accept", "text/event-stream")
	if ct := resp5.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type %q", ct)
	}
	events := strings.Split(strings.TrimSpace(string(body)), "\n\n")
	if len(events) != len(want)+1 {
		t.Fatalf("SSE sent %d events, want %d cells + done", len(events), len(want))
	}
	for i, ev := range events[:len(want)] {
		if !strings.Contains(ev, fmt.Sprintf("id: %d\n", i)) || !strings.Contains(ev, "event: cell\n") {
			t.Fatalf("SSE event %d malformed:\n%s", i, ev)
		}
	}
	if !strings.Contains(events[len(want)], "event: done") {
		t.Fatalf("no terminal done event:\n%s", events[len(want)])
	}
	// EventSource reconnection: Last-Event-ID resumes after that cell.
	_, body = get("/v1/sweeps/"+st.ID+"/cells",
		"Accept", "text/event-stream", "Last-Event-ID", fmt.Sprint(len(want)-2))
	if n := strings.Count(string(body), "event: cell"); n != 1 {
		t.Fatalf("Last-Event-ID resume replayed %d cells, want 1", n)
	}
	// A cursor at or past the end replays nothing, up to math.MaxInt,
	// whose n+1 must not wrap to a negative index.
	for _, id := range []string{fmt.Sprint(len(want) - 1), fmt.Sprint(len(want) + 5), fmt.Sprint(math.MaxInt)} {
		_, body = get("/v1/sweeps/"+st.ID+"/cells", "Accept", "text/event-stream", "Last-Event-ID", id)
		if n := strings.Count(string(body), "event: cell"); n != 0 || !strings.Contains(string(body), "event: done") {
			t.Fatalf("Last-Event-ID %s replayed %d cells, want 0 and a done event:\n%s", id, n, body)
		}
	}

	// A job ID the daemon never saw is 404 unknown_job on every route.
	for _, route := range [][2]string{
		{"GET", "/v1/sweeps/nope"},
		{"GET", "/v1/sweeps/nope/cells"},
		{"GET", "/v1/sweeps/nope/report/table2"},
		{"DELETE", "/v1/sweeps/nope"},
	} {
		if code, kind := do(route[0], route[1]); code != http.StatusNotFound || kind != "unknown_job" {
			t.Fatalf("%s %s: %d kind %q, want 404 unknown_job", route[0], route[1], code, kind)
		}
	}
	if resp7, _ := get("/v1/sweeps/" + st.ID + "/report/nope"); resp7.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown report: %d, want 404", resp7.StatusCode)
	}

	// List includes the job.
	_, body = get("/v1/sweeps")
	var list []JobStatus
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}

	// Metrics exposition: the advertised counters exist and the cache
	// counters add up (one grid simulated, zero shared — single job).
	_, body = get("/metrics")
	metricsText := string(body)
	for _, name := range []string{
		"specschedd_jobs_queued", "specschedd_jobs_running",
		"specschedd_jobs_completed_total 1",
		fmt.Sprintf("specschedd_cells_completed_total %d", len(want)),
		fmt.Sprintf("specschedd_cells_simulated_total %d", len(want)),
		"specschedd_cells_deduped_total 0",
		"specschedd_cells_cache_hits_total 0",
		"specschedd_jobs_retained 1",
		"specschedd_jobs_forgotten_total 0",
	} {
		if !strings.Contains(metricsText, name) {
			t.Fatalf("metrics missing %q:\n%s", name, metricsText)
		}
	}

	// DELETE on a terminal job reports its (unchanged) final state.
	delReq, err := http.NewRequest("DELETE", ts.URL+"/v1/sweeps/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp8, err := ts.Client().Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var afterCancel JobStatus
	if err := json.NewDecoder(resp8.Body).Decode(&afterCancel); err != nil {
		t.Fatal(err)
	}
	resp8.Body.Close()
	if afterCancel.State != JobDone {
		t.Fatalf("cancel of a done job changed its state to %s", afterCancel.State)
	}
	// ... and forgets it: the job is gone from every route and the table.
	if code, kind := do("GET", "/v1/sweeps/"+st.ID); code != http.StatusNotFound || kind != "unknown_job" {
		t.Fatalf("GET after DELETE of a done job: %d kind %q, want 404 unknown_job", code, kind)
	}
	if code, kind := do("DELETE", "/v1/sweeps/"+st.ID); code != http.StatusNotFound || kind != "unknown_job" {
		t.Fatalf("second DELETE: %d kind %q, want 404 unknown_job", code, kind)
	}
	_, body = get("/metrics")
	for _, name := range []string{"specschedd_jobs_retained 0", "specschedd_jobs_forgotten_total 1"} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("metrics missing %q after DELETE:\n%s", name, body)
		}
	}
}

// errBodyKind decodes an apiError body and returns its kind.
func errBodyKind(t *testing.T, body []byte) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return e.Kind
}

// TestServiceReportHTTP covers the report endpoint's success path: a done
// job's GET /v1/sweeps/{id}/report/table2 is 200 text/plain whose bytes
// equal Sweep.Report over the same spec, a second fig7 returns the first
// one's bytes, and a job still running is 409 not_done.
func TestServiceReportHTTP(t *testing.T) {
	spec := testSpec()
	ref, err := specsched.NewSweepFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Report(context.Background(), "table2")
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{MaxRunning: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	done, err := srv.Submit("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, done, JobDone)
	resp, body := get("/v1/sweeps/" + done.ID + "/report/table2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report of a done job: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("report Content-Type %q", ct)
	}
	if string(body) != want {
		t.Fatalf("report differs from Sweep.Report:\n--- daemon ---\n%s--- Sweep.Report ---\n%s", body, want)
	}
	// Asking again returns the same bytes; the report's grid leaves the
	// job's own cell total alone.
	_, fig7 := get("/v1/sweeps/" + done.ID + "/report/fig7")
	_, again := get("/v1/sweeps/" + done.ID + "/report/fig7")
	if st := done.Status(false); !strings.Contains(string(fig7), "Fig 7a") || string(again) != string(fig7) || st.TotalCells != st.DoneCells {
		t.Fatalf("fig7 twice (job has %d of %d cells):\n%s--- then ---\n%s", st.DoneCells, st.TotalCells, fig7, again)
	}

	running, err := srv.Submit("a", longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, JobRunning)
	resp, body = get("/v1/sweeps/" + running.ID + "/report/table2")
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatalf("409 body %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusConflict || apiErr.Kind != "not_done" {
		t.Fatalf("report of a running job: %d kind %q, want 409 not_done", resp.StatusCode, apiErr.Kind)
	}

	// DELETE on a live job cancels it and keeps it: once canceled, its
	// status is still served.
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/sweeps/"+running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE of a running job: %d", delResp.StatusCode)
	}
	waitState(t, running, JobCanceled)
	if resp, body := get("/v1/sweeps/" + running.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("status of a canceled job: %d %s", resp.StatusCode, body)
	}
}

// FuzzCellsCursor: whatever a client sends as ?after=, Accept and
// Last-Event-ID, the /cells cursor never panics and never goes negative.
// An after that is not a non-negative int is bad_cursor; otherwise the
// cursor is after, or one past a valid Last-Event-ID on an SSE request
// (math/big is the independent reader of both).
func FuzzCellsCursor(f *testing.F) {
	for _, v := range []string{"", "-1", "9223372036854775807", "1e3", " 3"} {
		f.Add(v, "text/event-stream", "")
		f.Add("", "text/event-stream", v)
		f.Add(v, "", v)
	}
	// index parses a decimal cursor the way the API defines one.
	index := func(v string) (int64, bool) {
		n, ok := new(big.Int).SetString(v, 10)
		if !ok || n.Sign() < 0 || !n.IsInt64() || n.Int64() > math.MaxInt {
			return 0, false
		}
		return n.Int64(), true
	}
	f.Fuzz(func(t *testing.T, after, accept, lastEventID string) {
		next, sse, err := cellsCursor(after, accept, lastEventID)
		if next < 0 {
			t.Fatalf("cursor(%q, %q, %q) = %d, negative", after, accept, lastEventID, next)
		}
		want, ok := index(after)
		if after != "" && !ok {
			if errKind(err) != "bad_cursor" {
				t.Fatalf("after %q: err %v, want bad_cursor", after, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("after %q rejected: %v", after, err)
		}
		if sse != strings.Contains(accept, "text/event-stream") {
			t.Fatalf("Accept %q: sse %v", accept, sse)
		}
		if last, ok := index(lastEventID); sse && ok {
			want = last
			if want < math.MaxInt {
				want++
			}
		}
		if int64(next) != want {
			t.Fatalf("cursor(%q, %q, %q) = %d, want %d", after, accept, lastEventID, next, want)
		}
	})
}
