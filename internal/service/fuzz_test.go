package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postBody drives a handler directly (no network) and returns the
// recorded response. The request context is a live one so cancellation
// paths stay exercised by the fuzzer.
func postBody(path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	New().Handler().ServeHTTP(rr, req)
	return rr
}

// fuzzSeeds are shared by both endpoint fuzzers: well-formed requests,
// malformed JSON, unknown fields, and extreme or adversarial numbers.
var fuzzSeeds = []string{
	``,
	`{`,
	`{not json`,
	`null`,
	`[]`,
	`"string"`,
	`{"device":"p100"}`,
	`{"device":"gtx480","workload":{"N":1024,"Products":1}}`,
	`{"device":"p100","bogus":1}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"config":"bs=8/g=1/r=2","seed":1}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"config":{"BS":8,"G":1,"R":2},"seed":1}`,
	`{"device":"k40c","workload":{"N":4096,"Products":2},"seed":3,"workers":2}`,
	`{"device":"haswell","workload":{"N":48,"Products":1},"seed":5,"workers":2}`,
	`{"device":"haswell","workload":{"N":96,"Products":1},"config":"contiguous/p=2/t=4","seed":5}`,
	`{"device":"legacy-xeon","workload":{"N":32,"Products":1},"seed":5}`,
	`{"device":"hetero","workload":{"N":256,"Products":2},"seed":5}`,
	`{"device":"hetero","workload":{"N":8,"Products":2},"seed":5}`,
	`{"device":"k40c","workload":{"app":"fft","N":1024,"Products":1},"config":"fft","seed":5}`,
	`{"device":"haswell","workload":{"app":"raytrace","N":64,"Products":1}}`,
	`{"device":"p100","workload":{"N":-5,"Products":2}}`,
	`{"device":"p100","workload":{"N":99999999999,"Products":8}}`,
	`{"device":"p100","workload":{"N":10240,"Products":9223372036854775807}}`,
	`{"device":"p100","workload":{"N":10240,"Products":8},"workers":-1}`,
	`{"device":"p100","workload":{"N":10240,"Products":8},"workers":100000}`,
	`{"device":"p100","workload":{"N":1e30,"Products":1}}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"config":"bs=-1/g=0/r=0"}`,
	`{"seed":` + strings.Repeat("9", 400) + `}`,
	`{"device":"haswell","workload":{"N":48,"Products":1},"seed":5,"retries":2,"faults":{"seed":1,"transient":0.5}}`,
	`{"device":"haswell","workload":{"N":48,"Products":1},"seed":5,"faults":{"seed":3,"drop":1}}`,
	`{"device":"haswell","workload":{"N":48,"Products":1},"seed":5,"timeout_ms":1}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"retries":-1}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"retries":1000}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"timeout_ms":-5}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"faults":{"seed":1,"transient":2}}`,
	`{"device":"p100","workload":{"app":"spmv","N":2048,"Products":1},"seed":9}`,
	`{"device":"haswell","workload":{"app":"stencil","N":64,"Products":1},"seed":9}`,
	`{"device":"hetero","workload":{"app":"compound","N":256,"Products":1},"seed":9}`,
	`{"device":"haswell","workload":{"app":"stencil","N":2,"Products":1},"seed":9}`,
	`{"device":"hetero","workload":{"app":"fft","N":1024,"Products":1},"seed":9}`,
	`{"device":"p100","workload":{"app":"spmv","N":2048,"Products":1},"seed":9,"policy":"race"}`,
	`{"device":"haswell","workload":{"N":48,"Products":1},"seed":9,"policy":"all","slack":2,"floor":0.4}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"policy":"sprint"}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"slack":2}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"policy":"race","slack":9}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"policy":"race","slack":0.5}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"policy":"paced","floor":0.96}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"policy":"paced","floor":-0.1}`,
	`{"device":"p100","workload":{"N":1024,"Products":2},"policy":"race","slack":1e308}`,
	// Trailing data after the JSON value, and a body past the size cap.
	`{"device":"p100","workload":{"N":1024,"Products":2},"config":"bs=8/g=1/r=2","seed":1} trailing`,
	`{"device":"haswell","workload":{"N":48,"Products":1},"seed":5}}`,
	`{}{}`,
	oversizeBody,
}

// oversizeBody is a well-formed request one byte past
// MaxRequestBodyBytes.
var oversizeBody = func() string {
	head, tail := `{"device":"p100","pad":"`, `"}`
	return head + strings.Repeat("x", MaxRequestBodyBytes+1-len(head)-len(tail)) + tail
}()

// skipCostly skips fuzz inputs that could decode into a valid large
// request and run real measurements. Bodies past MaxRequestBodyBytes are
// rejected before any measurement, so they stay in.
func skipCostly(t *testing.T, body string) {
	if len(body) > 4096 && len(body) <= MaxRequestBodyBytes {
		t.Skip()
	}
}

// TestDecodeRejectsTrailingAndOversizeBodies: a body carries exactly one
// JSON value (400 otherwise), and the size cap answers 413.
func TestDecodeRejectsTrailingAndOversizeBodies(t *testing.T) {
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/measure", `{"device":"p100","workload":{"N":1024,"Products":2},"config":"bs=8/g=1/r=2","seed":1} x`, http.StatusBadRequest},
		{"/sweep", `{"device":"haswell","workload":{"N":48,"Products":1},"seed":5}}`, http.StatusBadRequest},
		{"/sweep", `{}{}`, http.StatusBadRequest},
		{"/measure", oversizeBody, http.StatusRequestEntityTooLarge},
		{"/sweep", oversizeBody, http.StatusRequestEntityTooLarge},
		{"/sweep", `{"device":"haswell","workload":{"N":48,"Products":1},"seed":5}` + " \n\t ", http.StatusOK},
	} {
		rr := postBody(tc.path, tc.body)
		if rr.Code != tc.want {
			t.Errorf("%s %.60q: status %d, want %d: %s", tc.path, tc.body, rr.Code, tc.want, rr.Body)
		}
	}
}

// checkResponse is the property both fuzzers assert: the decoder and
// handler never panic (the fuzzer catches that on its own), and nothing
// is ever answered 500 — bad requests are 4xx, chaos outcomes are
// 200/206/502, expired deadlines are 504 — and every reply is JSON.
func checkResponse(t *testing.T, rr *httptest.ResponseRecorder, body string) {
	t.Helper()
	code := rr.Code
	switch {
	case code == http.StatusOK || code == http.StatusPartialContent:
	case code >= 400 && code < 500:
	case code == http.StatusBadGateway || code == http.StatusGatewayTimeout:
	default:
		t.Fatalf("status %d for body %q (500s are always bugs): %s", code, body, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q for body %q", ct, body)
	}
}

// FuzzMeasureDecode fuzzes the /measure JSON decoder and handler.
func FuzzMeasureDecode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		// Random inputs that happen to decode into a *valid* large
		// request would make the fuzzer run real measurements; bound the
		// cost by capping the body size (valid large numbers are still
		// covered by the explicit seeds above).
		skipCostly(t, body)
		checkResponse(t, postBody("/measure", body), body)
	})
}

// FuzzSweepDecode fuzzes the /sweep JSON decoder and handler.
func FuzzSweepDecode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		skipCostly(t, body)
		checkResponse(t, postBody("/sweep", body), body)
	})
}

// TestSweepHonorsRequestCancellation: a client that disconnects before
// the campaign starts must not receive a record, and the handler must
// return promptly instead of measuring the full sweep. The disconnect
// is recorded as 499 (client closed request) — never a 500, and never a
// campaign record.
func TestSweepHonorsRequestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/sweep",
		strings.NewReader(`{"device":"p100","workload":{"N":10240,"Products":8},"seed":1}`)).WithContext(ctx)
	rr := httptest.NewRecorder()
	New().Handler().ServeHTTP(rr, req)
	if rr.Code != StatusClientClosedRequest {
		t.Errorf("cancelled request answered %d, want %d", rr.Code, StatusClientClosedRequest)
	}
	body, _ := io.ReadAll(rr.Body)
	if strings.Contains(string(body), `"results"`) {
		t.Errorf("cancelled request still produced a record: %s", body)
	}
}
