package main

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"sybiltd/internal/mcs"
	"sybiltd/internal/platform"
	"sybiltd/internal/platform/shard"
)

// newFleet builds a router store over n in-process single-node groups.
func newFleet(t *testing.T, n int) *shard.Store {
	t.Helper()
	backends := make([]platform.Store, n)
	for i := range backends {
		backends[i] = platform.NewLocalStore(make([]mcs.Task, 1))
	}
	s, err := shard.New(context.Background(), backends, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func journal(t *testing.T) shard.MigrationOptions {
	return shard.MigrationOptions{JournalPath: filepath.Join(t.TempDir(), "reshard.json")}
}

// TestAnswerStartRefusals: a start refusal that the same request can
// never get past answers 400, which mcsplatform -leave and -join treat as
// permanent; a refusal that can clear, a migration already in flight,
// answers 409 and is retried.
func TestAnswerStartRefusals(t *testing.T) {
	for _, tc := range []struct {
		name       string
		start      func(t *testing.T) (*shard.Migration, error)
		wantStatus int
		wantCode   string
	}{
		{
			name: "last group",
			start: func(t *testing.T) (*shard.Migration, error) {
				return newFleet(t, 1).StartDecommission(0, journal(t))
			},
			wantStatus: http.StatusBadRequest, wantCode: "bad_request",
		},
		{
			name: "group out of range",
			start: func(t *testing.T) (*shard.Migration, error) {
				return newFleet(t, 2).StartDecommission(2, journal(t))
			},
			wantStatus: http.StatusBadRequest, wantCode: "bad_request",
		},
		{
			name: "unchanged weights",
			start: func(t *testing.T) (*shard.Migration, error) {
				return newFleet(t, 2).StartRebalance([]float64{1, 1}, journal(t))
			},
			wantStatus: http.StatusBadRequest, wantCode: "bad_request",
		},
		{
			name: "migration in flight",
			start: func(t *testing.T) (*shard.Migration, error) {
				s := newFleet(t, 2)
				if _, err := s.StartRebalance([]float64{2, 1}, journal(t)); err != nil {
					t.Fatal(err)
				}
				return s.StartDecommission(0, journal(t))
			},
			wantStatus: http.StatusConflict, wantCode: "conflict",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			m, err := tc.start(t)
			answerStart(rec, log.New(io.Discard, "", 0), m, err, tc.name, nil)
			var body struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if rec.Code != tc.wantStatus || body.Error.Code != tc.wantCode {
				t.Errorf("answer %d %q (%s), want %d %q", rec.Code, body.Error.Code, body.Error.Message, tc.wantStatus, tc.wantCode)
			}
		})
	}
}
