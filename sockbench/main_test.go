package main

import (
	"errors"
	"testing"
)

func TestFailedRequestsMakeTheRunIncorrect(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    outcome
		want bool
	}{
		{"clean", outcome{attempted: 10}, true},
		{"failed", outcome{attempted: 10, failed: 1}, false},
		{"mismatch", outcome{attempted: 10, mismatch: errors.New("wrong fingerprint")}, false},
	} {
		res := summarize([]*outcome{&tc.o})
		if res.Correct != tc.want || res.Attempted != 10 || res.Failed != tc.o.failed {
			t.Errorf("%s: result %+v, want correct=%v", tc.name, res, tc.want)
		}
	}
}
