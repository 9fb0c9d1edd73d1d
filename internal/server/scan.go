package server

// Hand-rolled, allocation-free scanner for the compose request wire
// shapes. The hit path used to pay a json.Unmarshal per request — the
// last per-hit allocation source after PR 5/6 removed every marshal —
// so scanComposeRequest parses the four-field body ({"from","to",
// "timeout_ms","trace"}) directly off the pooled body buffer: key order
// is free, unknown fields are skipped, and the from/to values come back
// as sub-slices of the buffer, never copied. The scanner is deliberately
// conservative: anything it is not certain the stdlib decoder would
// accept with identical semantics — escape sequences in from/to,
// non-integer timeouts, malformed bodies — makes it return ok=false and
// the caller falls back to json.Unmarshal, so the two decoders can
// never disagree on a body the scanner claims. FuzzComposeRequest
// cross-checks exactly that equivalence (scanner accepts ⇒ stdlib
// accepts with the same ComposeRequest) on arbitrary bodies.
//
// Because the scanned from/to alias the pooled buffer, a composeReqView
// must not outlive its handler call: the fast path uses view.pair to
// probe the result cache with zero-copy strings (the probe retains
// nothing), and everything slower goes through view.request, which
// copies the two strings into an owned ComposeRequest.

import (
	"math"
	"unicode/utf8"
	"unsafe"
)

// composeReqView is one scanned compose request. from and to alias the
// request body buffer; see the package comment above for the lifetime
// discipline.
type composeReqView struct {
	from, to  []byte
	timeoutMS int64
	trace     bool
}

// request materializes the view into an owned ComposeRequest, copying
// the two strings. Used off the fast path (cache miss, trace, compute),
// where two small allocations are noise next to the work ahead.
func (v *composeReqView) request() ComposeRequest {
	return ComposeRequest{
		From:      string(v.from),
		To:        string(v.to),
		TimeoutMS: v.timeoutMS,
		Trace:     v.trace,
	}
}

// pair builds the cache probe key without copying: the strings alias
// the body buffer via unsafe.String. The key is only valid for the
// duration of the probe — the cache stores entries under their own
// owned pair, so a probe never retains the aliased strings.
func (v *composeReqView) pair(cfg uint64) pairKey {
	return pairKey{from: viewString(v.from), to: viewString(v.to), cfg: cfg}
}

// viewString aliases b as a string without copying.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// reqScanner is a cursor over one request body.
type reqScanner struct {
	b   []byte
	pos int
}

// maxScanDepth bounds nesting while skipping unknown values; deeper
// bodies fall back to the stdlib decoder (which enforces its own limit).
const maxScanDepth = 32

// scanComposeRequest parses a single compose request body. ok=false
// means "let json.Unmarshal decide" — either the body is malformed (the
// stdlib error becomes the 400) or it uses JSON the scanner does not
// replicate bit-for-bit (escapes, case-folded keys via escapes, floats).
func scanComposeRequest(b []byte) (composeReqView, bool) {
	s := reqScanner{b: b}
	v, ok := s.scanComposeObject()
	if !ok {
		return composeReqView{}, false
	}
	s.skipSpace()
	if s.pos != len(s.b) {
		return composeReqView{}, false // trailing content: stdlib errors
	}
	return v, true
}

// scanComposeObject parses one {"from","to","timeout_ms","trace"}
// object from the current position. Unknown keys are skipped; known
// keys match ASCII case-insensitively (the stdlib's fallback rule —
// with four distinct field names, per-key case-insensitive matching
// reproduces its behavior exactly, including last-key-wins).
func (s *reqScanner) scanComposeObject() (composeReqView, bool) {
	var v composeReqView
	s.skipSpace()
	if !s.eat('{') {
		return v, false
	}
	s.skipSpace()
	if s.eat('}') {
		return v, true
	}
	for {
		s.skipSpace()
		key, ok := s.scanKey()
		if !ok {
			return v, false
		}
		s.skipSpace()
		if !s.eat(':') {
			return v, false
		}
		s.skipSpace()
		switch {
		case foldEqual(key, "from"):
			if v.from, ok = s.scanPlainString(); !ok {
				return v, false
			}
		case foldEqual(key, "to"):
			if v.to, ok = s.scanPlainString(); !ok {
				return v, false
			}
		case foldEqual(key, "timeout_ms"):
			if v.timeoutMS, ok = s.scanInt64(); !ok {
				return v, false
			}
		case foldEqual(key, "trace"):
			if v.trace, ok = s.scanBool(); !ok {
				return v, false
			}
		default:
			if !s.skipValue(maxScanDepth) {
				return v, false
			}
		}
		s.skipSpace()
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return v, true
		}
		return v, false
	}
}

// scanKey scans an object key. Keys with escape sequences are rejected
// (they could case-fold onto a known field in ways byte comparison
// cannot see), sending the body to the stdlib decoder.
func (s *reqScanner) scanKey() ([]byte, bool) {
	return s.scanPlainStringValue()
}

// scanPlainString scans a string value for from/to: null (field left
// zero, as the stdlib does) or a quoted string with no escapes, no
// control characters and valid UTF-8 — exactly the inputs for which a
// byte sub-slice equals the stdlib's decoded string.
func (s *reqScanner) scanPlainString() ([]byte, bool) {
	if s.hasPrefix("null") {
		s.pos += 4
		return nil, true
	}
	return s.scanPlainStringValue()
}

func (s *reqScanner) scanPlainStringValue() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.pos
	ascii := true
	for s.pos < len(s.b) {
		c := s.b[s.pos]
		switch {
		case c == '"':
			out := s.b[start:s.pos]
			s.pos++
			if !ascii && !utf8.Valid(out) {
				// The stdlib coerces invalid UTF-8 to U+FFFD; bail so the
				// fallback reproduces that byte-for-byte.
				return nil, false
			}
			return out, true
		case c == '\\' || c < 0x20:
			return nil, false // escapes and raw control chars: fallback
		case c >= utf8.RuneSelf:
			ascii = false
			s.pos++
		default:
			s.pos++
		}
	}
	return nil, false
}

// scanInt64 scans timeout_ms: null or a plain JSON integer that fits
// int64. Floats, exponents, leading zeros and overflow all fall back —
// the stdlib rejects every one of those when decoding into int64, and
// the fallback owns producing that exact error.
func (s *reqScanner) scanInt64() (int64, bool) {
	if s.hasPrefix("null") {
		s.pos += 4
		return 0, true
	}
	neg := false
	if s.pos < len(s.b) && s.b[s.pos] == '-' {
		neg = true
		s.pos++
	}
	start := s.pos
	for s.pos < len(s.b) && s.b[s.pos] >= '0' && s.b[s.pos] <= '9' {
		s.pos++
	}
	digits := s.b[start:s.pos]
	if len(digits) == 0 || (len(digits) > 1 && digits[0] == '0') {
		return 0, false
	}
	if s.pos < len(s.b) {
		// A '.', 'e' or 'E' makes this a float; into int64 the stdlib
		// errors, so fall back.
		if c := s.b[s.pos]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	var n uint64
	for _, d := range digits {
		if n > math.MaxUint64/10 {
			return 0, false
		}
		n = n*10 + uint64(d-'0')
		if !neg && n > math.MaxInt64 {
			return 0, false
		}
		if neg && n > math.MaxInt64+1 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// scanBool scans trace: true, false or null.
func (s *reqScanner) scanBool() (bool, bool) {
	switch {
	case s.hasPrefix("true"):
		s.pos += 4
		return true, true
	case s.hasPrefix("false"):
		s.pos += 5
		return false, true
	case s.hasPrefix("null"):
		s.pos += 4
		return false, true
	}
	return false, false
}

// skipValue skips one well-formed JSON value of any type. It validates
// as strictly as the stdlib scanner for everything it accepts — a body
// the scanner passes but the stdlib would reject is a semantic
// divergence (accepted request vs 400), so malformed strings, numbers
// and literals all return false and force the fallback.
func (s *reqScanner) skipValue(depth int) bool {
	if depth <= 0 || s.pos >= len(s.b) {
		return false
	}
	switch c := s.b[s.pos]; {
	case c == '"':
		return s.skipString()
	case c == '{':
		s.pos++
		s.skipSpace()
		if s.eat('}') {
			return true
		}
		for {
			s.skipSpace()
			if _, ok := s.scanAnyKey(); !ok {
				return false
			}
			s.skipSpace()
			if !s.eat(':') {
				return false
			}
			s.skipSpace()
			if !s.skipValue(depth - 1) {
				return false
			}
			s.skipSpace()
			if s.eat(',') {
				continue
			}
			return s.eat('}')
		}
	case c == '[':
		s.pos++
		s.skipSpace()
		if s.eat(']') {
			return true
		}
		for {
			s.skipSpace()
			if !s.skipValue(depth - 1) {
				return false
			}
			s.skipSpace()
			if s.eat(',') {
				continue
			}
			return s.eat(']')
		}
	case c == 't':
		return s.eatLiteral("true")
	case c == 'f':
		return s.eatLiteral("false")
	case c == 'n':
		return s.eatLiteral("null")
	default:
		return s.skipNumber()
	}
}

// scanAnyKey scans a skipped object's key, escapes allowed (its value
// is discarded, so only well-formedness matters).
func (s *reqScanner) scanAnyKey() ([]byte, bool) {
	if s.pos >= len(s.b) || s.b[s.pos] != '"' {
		return nil, false
	}
	start := s.pos
	if !s.skipString() {
		return nil, false
	}
	return s.b[start:s.pos], true
}

// skipString skips a quoted string, validating escapes and rejecting
// raw control characters, mirroring the stdlib scanner's rules.
func (s *reqScanner) skipString() bool {
	if !s.eat('"') {
		return false
	}
	for s.pos < len(s.b) {
		c := s.b[s.pos]
		switch {
		case c == '"':
			s.pos++
			return true
		case c == '\\':
			s.pos++
			if s.pos >= len(s.b) {
				return false
			}
			switch s.b[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for i := 0; i < 4; i++ {
					if s.pos >= len(s.b) || !isHex(s.b[s.pos]) {
						return false
					}
					s.pos++
				}
			default:
				return false
			}
		case c < 0x20:
			return false
		default:
			s.pos++
		}
	}
	return false
}

// skipNumber skips a JSON number, enforcing the grammar (no leading
// zeros, no bare '.', exponent needs digits) so that nothing the
// stdlib would 400 sneaks through as accepted.
func (s *reqScanner) skipNumber() bool {
	if s.pos < len(s.b) && s.b[s.pos] == '-' {
		s.pos++
	}
	start := s.pos
	for s.pos < len(s.b) && s.b[s.pos] >= '0' && s.b[s.pos] <= '9' {
		s.pos++
	}
	n := s.pos - start
	if n == 0 || (n > 1 && s.b[start] == '0') {
		return false
	}
	if s.pos < len(s.b) && s.b[s.pos] == '.' {
		s.pos++
		d := s.pos
		for s.pos < len(s.b) && s.b[s.pos] >= '0' && s.b[s.pos] <= '9' {
			s.pos++
		}
		if s.pos == d {
			return false
		}
	}
	if s.pos < len(s.b) && (s.b[s.pos] == 'e' || s.b[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.b) && (s.b[s.pos] == '+' || s.b[s.pos] == '-') {
			s.pos++
		}
		d := s.pos
		for s.pos < len(s.b) && s.b[s.pos] >= '0' && s.b[s.pos] <= '9' {
			s.pos++
		}
		if s.pos == d {
			return false
		}
	}
	return true
}

func (s *reqScanner) skipSpace() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *reqScanner) eat(c byte) bool {
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

func (s *reqScanner) eatLiteral(lit string) bool {
	if s.hasPrefix(lit) {
		s.pos += len(lit)
		return true
	}
	return false
}

func (s *reqScanner) hasPrefix(lit string) bool {
	if len(s.b)-s.pos < len(lit) {
		return false
	}
	for i := 0; i < len(lit); i++ {
		if s.b[s.pos+i] != lit[i] {
			return false
		}
	}
	return true
}

// foldEqual compares an unescaped key against a lower-case field name
// ASCII case-insensitively — the stdlib's fallback match rule.
func foldEqual(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := key[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
