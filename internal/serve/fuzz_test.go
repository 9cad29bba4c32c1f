package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSolveRequest feeds arbitrary bodies to the solve handler of one ready
// grid2d:4 handle. Every request carries ?timeout_ms=, so a huge max_iter or
// chebyshev_iters cannot hang the run, and the tenant bucket refills
// instantly, so admission only refuses requests wider than its burst.
// Invariants: no body panics the handler, every response is JSON, and a
// body that decodes with a right-hand side of the wrong length gets 400.
func FuzzSolveRequest(f *testing.F) {
	const burst = 64
	srv := New(Config{Admission: AdmissionConfig{Rate: 1e12, Burst: burst, MaxQueue: 1}})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs?spec=grid2d:4&wait=true", nil))
	if rec.Code != http.StatusCreated {
		f.Fatalf("submit: code %d body %s", rec.Code, rec.Body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		f.Fatal(err)
	}
	const n = 16
	path := "/v1/graphs/" + sub.ID + "/solve?timeout_ms=20"

	f.Add([]byte(`{"b":[[1,-1]]}`))
	f.Add([]byte(`{"b":[[1,-1]],"method":"resilient"}`))
	f.Add([]byte(`{"b":[[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,-1]],"include_x":true}`))
	f.Add([]byte(`{"rhs":3,"seed":7,"tol":1e-300,"max_iter":1000000000}`))
	f.Add([]byte(`{"method":"chebyshev","chebyshev_iters":1000000000}`))
	f.Add([]byte(`{"method":"bogus"}`))
	f.Add([]byte(`{"b":[null]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("code %d: response is not JSON: %q", rec.Code, rec.Body)
		}
		var req solveRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || len(req.B) > burst {
			return
		}
		for _, col := range req.B {
			if len(col) != n {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("wrong-length column: code %d body %s, want 400",
						rec.Code, strings.TrimSpace(rec.Body.String()))
				}
				return
			}
		}
	})
}
