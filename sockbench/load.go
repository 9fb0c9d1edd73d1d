package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns bounds the benchmark's connections to the server: two, one
// per CPU of the machine the baseline was measured on, shared by every
// client goroutine and by set-up and scrapes.
const maxConns = 2

var (
	cachedTrue  = []byte(`"cached":true`)
	cachedFalse = []byte(`"cached":false`)
)

// conn is the benchmark's HTTP side: a keep-alive transport to one
// server.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(addr string) *conn {
	return &conn{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body into buf.
func (c *conn) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (status int, reqID string, err error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Request-Id"), nil
}

// getJSON fetches path and decodes it into v.
func (c *conn) getJSON(ctx context.Context, path string, v any) error {
	var buf bytes.Buffer
	status, _, err := c.do(ctx, http.MethodGet, path, nil, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(buf.Bytes()))
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// register POSTs a task file and fails on anything but 200.
func (c *conn) register(ctx context.Context, text string) error {
	var buf bytes.Buffer
	status, _, err := c.do(ctx, http.MethodPost, "/v1/register", []byte(text), &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("register: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// traffic is a workload's request streams. The streams are pure
// functions of the seed and continue from the warm-up into the timed
// phase.
type traffic struct {
	w       *workload
	bodies  [][]byte     // compose request body per pair
	streams []func() int // per reader: next pair index
	pubRng  *rand.Rand   // the publisher's mapping choices
}

func newTraffic(w *workload, seed int64) *traffic {
	t := &traffic{w: w, pubRng: rand.New(rand.NewSource(subSeed(seed, 1000)))}
	for _, p := range w.pairs {
		t.bodies = append(t.bodies, fmt.Appendf(nil, `{"from":%q,"to":%q}`, p[0], p[1]))
	}
	for i := 0; i < w.readers; i++ {
		t.streams = append(t.streams, w.stream(seed, i))
	}
	return t
}

// stream returns reader i's request sequence as indices into w.pairs.
func (w *workload) stream(seed int64, i int) func() int {
	rng := rand.New(rand.NewSource(subSeed(seed, int64(i+1))))
	if !w.zipf {
		return func() int { return rng.Intn(len(w.pairs)) }
	}
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(w.pairs)-1))
	return func() int { return int(z.Uint64()) }
}

// nextPublish returns the body re-registering the next mapping the
// publisher picks.
func (t *traffic) nextPublish() string {
	ms := t.w.prob.MapOrder
	return t.w.publishBody(ms[t.pubRng.Intn(len(ms))])
}

// target is what a phase drives: the daemon over HTTP, or the traced
// in-process server.
type target struct {
	conn *conn
	// publish registers one task file and reports its failure.
	publish func(ctx context.Context, text string) error
	// observe, when set, sees every compose exchange (trace mode).
	observe func(pair int, reqID string, start, end time.Time, body []byte)
}

// phase is what one closed-loop phase measured.
type phase struct {
	composeUS []float64 // per attempted compose; +Inf when it failed
	publishMS []float64 // per attempted publish; +Inf when it failed
	failed    int
	elapsed   time.Duration
	mismatch  error // first response that contradicts the reference
}

func (p *phase) attempted() int { return len(p.composeUS) + len(p.publishMS) }

// run drives the workload's readers, and its publisher when it has one,
// in closed loops for d. Every request that starts before the deadline
// completes and counts.
func (t *traffic) run(ctx context.Context, tg *target, d time.Duration) *phase {
	start := time.Now()
	end := start.Add(d)
	parts := make([]phase, len(t.streams)+1)
	p := &pacer{every: int64(t.w.readsPerPublish), due: make(chan struct{}, 1)}
	var wg sync.WaitGroup
	for i, next := range t.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.read(ctx, tg, next, end, p, &parts[i])
		}()
	}
	if p.every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.publishLoop(ctx, tg, end, p, &parts[len(t.streams)])
		}()
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	for i := range parts {
		p := &parts[i]
		out.composeUS = append(out.composeUS, p.composeUS...)
		out.publishMS = append(out.publishMS, p.publishMS...)
		out.failed += p.failed
		if out.mismatch == nil {
			out.mismatch = p.mismatch
		}
	}
	if out.mismatch == nil && ctx.Err() != nil {
		out.mismatch = ctx.Err()
	}
	return out
}

// pacer makes a publish due after every `every` reads, counted over all
// readers. A publish that falls due while the previous one runs starts
// when that one ends; any further one that falls due meanwhile is
// skipped.
type pacer struct {
	every int64 // reads per publish; 0 means no publisher
	reads atomic.Int64
	due   chan struct{}
}

func (p *pacer) read() {
	if p.every > 0 && p.reads.Add(1)%p.every == 0 {
		select {
		case p.due <- struct{}{}:
		default:
		}
	}
}

// read is one closed-loop compose client.
func (t *traffic) read(ctx context.Context, tg *target, next func() int, end time.Time, p *pacer, out *phase) {
	var buf bytes.Buffer
	for ctx.Err() == nil && time.Now().Before(end) {
		p.read()
		i := next()
		start := time.Now()
		status, id, err := tg.conn.do(ctx, http.MethodPost, "/v1/compose", t.bodies[i], &buf)
		stop := time.Now()
		us := float64(stop.Sub(start).Nanoseconds()) / 1e3
		body := buf.Bytes()
		switch {
		case err != nil || status != http.StatusOK:
			us = math.Inf(1)
			out.failed++
		case !bytes.Contains(body, t.w.ref.want[i].needle):
			us = math.Inf(1)
			out.failed++
			if out.mismatch == nil {
				out.mismatch = fmt.Errorf("compose %s→%s: response lacks reference %s: %.300s",
					t.w.pairs[i][0], t.w.pairs[i][1], t.w.ref.want[i].needle, body)
			}
		case t.w.allHits && !bytes.Contains(body, cachedTrue):
			us = math.Inf(1)
			out.failed++
			if out.mismatch == nil {
				out.mismatch = fmt.Errorf("compose %s→%s: expected a cache hit: %.300s", t.w.pairs[i][0], t.w.pairs[i][1], body)
			}
		case tg.observe != nil:
			tg.observe(i, id, start, stop, body)
		}
		out.composeUS = append(out.composeUS, us)
	}
}

// publishLoop re-registers seeded-random mappings, unchanged, each time
// the pacer says a publish is due, until end.
func (t *traffic) publishLoop(ctx context.Context, tg *target, end time.Time, p *pacer, out *phase) {
	deadline := time.NewTimer(time.Until(end))
	defer deadline.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-deadline.C:
			return
		case <-p.due:
			t.publishOnce(ctx, tg, out)
		}
	}
}

// probe publishes n times back to back: the publish latency of the
// workloads whose timed phase has no publisher.
func (t *traffic) probe(ctx context.Context, tg *target, n int) *phase {
	out := &phase{}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		t.publishOnce(ctx, tg, out)
	}
	return out
}

// publishOnce re-registers the next mapping the publisher picks and
// records the latency.
func (t *traffic) publishOnce(ctx context.Context, tg *target, out *phase) {
	text := t.nextPublish()
	start := time.Now()
	err := tg.publish(ctx, text)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		ms = math.Inf(1)
		out.failed++
	}
	out.publishMS = append(out.publishMS, ms)
}
