package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hotleakage/internal/server/api"
	"hotleakage/internal/store"
)

// FuzzSubmit drives arbitrary bodies through the shared submit path —
// decode, the cross-product bound, ExpandCells, RequestHash and admission
// — on a paused daemon. It must never panic, answer only 200, 202, 400 or
// 429, and never admit a sweep larger than MaxCells. The seed corpus in
// testdata/fuzz/FuzzSubmit holds the request bodies the server, api and
// cluster tests and the smoke scripts send.
func FuzzSubmit(f *testing.F) {
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	cfg := Config{Store: st, QueueDepth: 4, MaxCells: 64}
	submit := newServer(cfg).handleSubmit
	f.Fuzz(func(t *testing.T, body []byte) {
		rr := httptest.NewRecorder()
		submit(rr, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
		switch rr.Code {
		case http.StatusOK, http.StatusAccepted:
			var sw api.SweepStatus
			if err := json.Unmarshal(rr.Body.Bytes(), &sw); err != nil {
				t.Fatalf("status body %q: %v", rr.Body.String(), err)
			}
			if sw.Total < 1 || sw.Total > cfg.MaxCells {
				t.Fatalf("admitted a %d-cell sweep, limit %d: %q", sw.Total, cfg.MaxCells, body)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("answered %d to %q: %s", rr.Code, body, rr.Body.String())
		}
	})
}
