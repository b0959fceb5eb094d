package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/sociograph/reconcile/internal/tenant"
)

// TestRunSlotFreeAtTerminalStatus pins that a job's scheduler run slot is
// free by the time any reader can see the job's terminal status: finish
// releases it under the job lock that publishes the status. The jobs run
// one at a time; each is polled, as fast as the job lock allows, with the
// view a GET of the job encodes, and the tenant's in-flight slots are read
// the moment it shows a terminal status, so the reading must be 0. A slot
// released after finish returns, once the status is visible, shows here as
// a held slot within the first few jobs.
func TestRunSlotFreeAtTerminalStatus(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.handler()
	body, err := json.Marshal(testInstance(t, 60, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, url string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		return rec
	}
	const jobs = 100
	deadline := time.Now().Add(time.Minute)
	for i := 0; i < jobs; i++ {
		created := serve(http.MethodPost, "/v1/jobs", body)
		if created.Code != http.StatusAccepted {
			t.Fatalf("job %d: POST status %d", i, created.Code)
		}
		var c map[string]string
		if err := json.Unmarshal(created.Body.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		j := s.jobs[c["id"]]
		s.mu.Unlock()
		for {
			// What a GET of the job encodes, without the encoding between
			// the status read and the slot read.
			if v := j.view(false); v.Status != statusRunning {
				if held := s.sched.InFlight(tenant.Default); held != 0 {
					t.Fatalf("job %d: status %q visible while the tenant holds %d run slots", i, v.Status, held)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d still running after a minute", i)
			}
		}
	}
}
