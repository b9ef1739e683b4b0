package main

import (
	"errors"
	"testing"

	"sybiltd/internal/platform"
)

// TestCompareChecksEveryTaskOnce checks that an aggregate answer must
// answer each task exactly once and stay in range.
func TestCompareChecksEveryTaskOnce(t *testing.T) {
	a := &aggregates{want: []float64{-70, -80}}
	for name, truths := range map[string][]platform.TruthDTO{
		"repeated":     {{Task: 0, Value: -70, Estimated: true}, {Task: 0, Value: -70, Estimated: true}},
		"out of range": {{Task: 0, Value: -70, Estimated: true}, {Task: 2, Value: -80, Estimated: true}},
		"negative":     {{Task: -1, Value: -70, Estimated: true}, {Task: 1, Value: -80, Estimated: true}},
		"wrong value":  {{Task: 0, Value: -70, Estimated: true}, {Task: 1, Value: -81, Estimated: true}},
	} {
		var resp platform.AggregateResponse
		resp.Truths = truths
		if err := a.compare(resp); !errors.Is(err, errWrong) {
			t.Errorf("%s: compare = %v, want errWrong", name, err)
		}
	}
	var resp platform.AggregateResponse
	resp.Truths = []platform.TruthDTO{{Task: 1, Value: -80, Estimated: true}, {Task: 0, Value: -70, Estimated: true}}
	if err := a.compare(resp); err != nil {
		t.Errorf("correct answer: compare = %v", err)
	}
}
