package server

import (
	"encoding/json"
	"testing"
)

// scanEquivalent is the scanner's contract, as one assertion: whenever
// scanComposeRequest claims a body, json.Unmarshal into ComposeRequest
// must succeed on the same bytes and produce the identical struct.
// (The converse is not required — the scanner may decline bodies the
// stdlib accepts; declining is the safe fallback.)
func scanEquivalent(t *testing.T, body []byte) {
	t.Helper()
	view, ok := scanComposeRequest(body)
	if !ok {
		return
	}
	got := view.request()
	var want ComposeRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("scanner accepted %q but stdlib rejects it: %v", body, err)
	}
	if got != want {
		t.Fatalf("scanner diverges on %q:\nscanner %+v\nstdlib  %+v", body, got, want)
	}
}

func TestScanComposeRequest(t *testing.T) {
	accepted := []struct {
		body string
		want ComposeRequest
	}{
		{`{"from":"a","to":"b"}`, ComposeRequest{From: "a", To: "b"}},
		{`{"to":"b","from":"a"}`, ComposeRequest{From: "a", To: "b"}},
		{`{"from":"a","to":"b","timeout_ms":250,"trace":true}`,
			ComposeRequest{From: "a", To: "b", TimeoutMS: 250, Trace: true}},
		{`  { "from" : "a" , "to" : "b" }  `, ComposeRequest{From: "a", To: "b"}},
		{`{"from":"a","to":"b","unknown":{"nested":[1,2,{"x":null}]},"trace":false}`,
			ComposeRequest{From: "a", To: "b"}},
		{`{"from":"a","to":"b","extra":"with \"escapes\" and \u00e9"}`,
			ComposeRequest{From: "a", To: "b"}},
		{`{"FROM":"a","To":"b"}`, ComposeRequest{From: "a", To: "b"}},            // case-insensitive match
		{`{"from":"a","from":"c","to":"b"}`, ComposeRequest{From: "c", To: "b"}}, // last key wins
		{`{"from":null,"to":"b","timeout_ms":null,"trace":null}`, ComposeRequest{To: "b"}},
		{`{"from":"a","to":"b","timeout_ms":-7}`, ComposeRequest{From: "a", To: "b", TimeoutMS: -7}},
		{`{"from":"a","to":"b","timeout_ms":0}`, ComposeRequest{From: "a", To: "b"}},
		{`{"from":"über","to":"b"}`, ComposeRequest{From: "über", To: "b"}}, // valid UTF-8 passes
		{`{}`, ComposeRequest{}},
		{`{"from":"a","to":"b","n":1.5,"m":-2e10,"s":"x","b":true,"z":null,"l":[]}`,
			ComposeRequest{From: "a", To: "b"}},
	}
	for _, tc := range accepted {
		view, ok := scanComposeRequest([]byte(tc.body))
		if !ok {
			t.Errorf("scanner declined %q (fallback would still work, but these must stay on the fast path)", tc.body)
			continue
		}
		if got := view.request(); got != tc.want {
			t.Errorf("scan %q = %+v, want %+v", tc.body, got, tc.want)
		}
		scanEquivalent(t, []byte(tc.body))
	}

	// Bodies the scanner must decline: either malformed (stdlib errors,
	// and the fallback owns producing that error) or encoded in ways a
	// byte-subslice cannot reproduce.
	declined := []string{
		``,
		`not json`,
		`null`,
		`[1,2]`,
		`{"from":"a","to":"b"} trailing`,
		`{"from":"a\u0062c","to":"b"}`,           // escaped value: needs unescaping
		`{"from":"a","to":"b",}`,                 // trailing comma
		`{"from":"a" "to":"b"}`,                  // missing comma
		`{"from":"a","to":"b","timeout_ms":1.5}`, // float into int64
		`{"from":"a","to":"b","timeout_ms":1e3}`, // exponent
		`{"from":"a","to":"b","timeout_ms":007}`, // leading zeros
		`{"from":"a","to":"b","timeout_ms":99999999999999999999}`, // overflow
		`{"from":"a","to":"b","x":01}`,                            // bad number in skipped field
		`{"from":"a","to":"b","x":"\q"}`,                          // bad escape in skipped field
		`{"from":"a","to":"b","trace":1}`,
		`{"\u0066rom":"a","to":"b"}`,         // escaped key
		"{\"from\":\"a\x01b\",\"to\":\"b\"}", // raw control char
		"{\"from\":\"a\xff\",\"to\":\"b\"}",  // invalid UTF-8 (stdlib coerces)
	}
	for _, body := range declined {
		if _, ok := scanComposeRequest([]byte(body)); ok {
			t.Errorf("scanner accepted %q, must decline (semantics need the stdlib fallback)", body)
		}
		scanEquivalent(t, []byte(body))
	}
}

// TestScanDeepNestingFallsBack pins the depth cap: a body whose unknown
// field nests past maxScanDepth must be declined (the stdlib enforces
// its own far larger limit), never crash the scanner.
func TestScanDeepNestingFallsBack(t *testing.T) {
	body := []byte(`{"from":"a","to":"b","deep":`)
	for i := 0; i < maxScanDepth+4; i++ {
		body = append(body, '[')
	}
	for i := 0; i < maxScanDepth+4; i++ {
		body = append(body, ']')
	}
	body = append(body, '}')
	if _, ok := scanComposeRequest(body); ok {
		t.Fatal("scanner accepted a body nested past its depth cap")
	}
	scanEquivalent(t, body)
}

// TestScanViewZeroCopy pins the zero-copy contract: the scanned from/to
// are sub-slices of the input buffer, not copies — the foundation of
// the allocation-free cache probe.
func TestScanViewZeroCopy(t *testing.T) {
	body := []byte(`{"from":"original","to":"split"}`)
	view, ok := scanComposeRequest(body)
	if !ok {
		t.Fatal("scanner declined the canonical body")
	}
	// Mutating the buffer must show through the view.
	body[9] = 'O'
	if got := string(view.from); got != "Original" {
		t.Fatalf("view.from = %q after buffer mutation, want aliasing view", got)
	}
	pair := view.pair(7)
	if pair.from != "Original" || pair.to != "split" || pair.cfg != 7 {
		t.Fatalf("view.pair = %+v", pair)
	}
}
