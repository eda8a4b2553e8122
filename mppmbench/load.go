package main

// The load client: at most two keep-alive connections to the front
// server, one record per request, and each response checked after its
// own timing stops.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"repro/internal/wire"
)

// record is one request as the client saw it. Times are seconds since
// the run's clock started; Due is when an open-loop request was
// scheduled (equal to Sent in a closed loop).
type record struct {
	Kind      string  `json:"kind"`
	Encoding  string  `json:"encoding"`
	Phase     string  `json:"phase"`
	Due       float64 `json:"due_s"`
	Sent      float64 `json:"sent_s"`
	FirstByte float64 `json:"first_byte_s"`
	LastByte  float64 `json:"last_byte_s"`
	Bytes     int     `json:"bytes"`
	Rows      int     `json:"rows"`
	Status    int     `json:"status"`
	Err       string  `json:"error,omitempty"`
}

func (r *record) latency() float64 { return r.LastByte - r.Due } // open loop: from when due
func (r *record) elapsed() float64 { return r.LastByte - r.Sent }
func (r *record) ttfb() float64    { return r.FirstByte - r.Sent }

// client sends a run's requests and collects their records.
type client struct {
	base  string
	clock time.Time

	mu      sync.Mutex
	records []record
}

func newClient(base string, clock time.Time) *client {
	return &client{base: base, clock: clock}
}

// conn is one keep-alive connection's worth of client: requests on it
// are sequential.
type conn struct {
	c   *client
	hc  *http.Client
	buf bytes.Buffer
}

func (c *client) conn() *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{c: c, hc: &http.Client{Transport: tr}}
}

func (cn *conn) close() { cn.hc.CloseIdleConnections() }

func (c *client) since(t time.Time) float64 { return t.Sub(c.clock).Seconds() }

// do sends one request due at the given time (zero: now), reads the
// whole response, stops the clock, then checks the body. It returns the
// checked rows; a failed request or check is recorded in rec.Err.
func (cn *conn) do(ctx context.Context, phase string, req *request, due time.Time) (record, []wire.ScenarioResult) {
	c := cn.c
	rec := record{Kind: req.Kind, Encoding: req.Enc, Phase: phase}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/eval", bytes.NewReader(req.Body))
	if err != nil {
		rec.Err = err.Error()
		return c.add(rec), nil
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.Enc == encWire {
		hreq.Header.Set("Accept", wire.ContentType)
	}
	var first time.Time
	hreq = hreq.WithContext(httptrace.WithClientTrace(hreq.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	}))
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	resp, err := cn.hc.Do(hreq)
	cn.buf.Reset()
	if err == nil {
		_, err = cn.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		rec.Status = resp.StatusCode
	}
	last := time.Now()
	rec.Due, rec.Sent, rec.FirstByte, rec.LastByte = c.since(due), c.since(sent), c.since(first), c.since(last)
	rec.Bytes = cn.buf.Len()
	switch {
	case err != nil:
		rec.Err = err.Error()
	case rec.Status != http.StatusOK:
		rec.Err = fmt.Sprintf("status %d: %.200s", rec.Status, cn.buf.Bytes())
	}
	if rec.Err != "" {
		return c.add(rec), nil
	}
	rows, err := checkResponse(req, cn.buf.Bytes())
	rec.Rows = len(rows)
	if err != nil {
		rec.Err = "check: " + err.Error()
		rows = nil
	}
	return c.add(rec), rows
}

func (c *client) add(rec record) record {
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.mu.Unlock()
	return rec
}

// snapshot returns a copy of the records so far.
func (c *client) snapshot() []record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]record(nil), c.records...)
}

// sweepLoop sends whole rotations back to back until the phase has run
// for at least d, or the prepared sweeps run out.
func (cn *conn) sweepLoop(ctx context.Context, phase string, sweeps []*request, d time.Duration) {
	start := time.Now()
	for i := 0; i+len(rotation) <= len(sweeps); i += len(rotation) {
		for _, req := range sweeps[i : i+len(rotation)] {
			cn.do(ctx, phase, req, time.Time{})
		}
		if time.Since(start) >= d || ctx.Err() != nil {
			return
		}
	}
}

// compareLoop sends compare requests back to back until the phase has
// run for at least d and at least minReqs were sent; it returns the
// rows of the first minReqs requests, the compare set.
func (cn *conn) compareLoop(ctx context.Context, phase string, compares []*request, d time.Duration, minReqs int) []wire.ScenarioResult {
	start := time.Now()
	var set []wire.ScenarioResult
	for i, req := range compares {
		if i >= minReqs && (time.Since(start) >= d || ctx.Err() != nil) {
			break
		}
		_, rows := cn.do(ctx, phase, req, time.Time{})
		if i < minReqs {
			set = append(set, rows...)
		}
	}
	return set
}

// openLoop sends the predicts at a fixed rate from start, each timed
// from when it was due. A request that is late goes out at once. It
// returns early, between requests, once stop is closed; a nil stop
// never is.
func (cn *conn) openLoop(ctx context.Context, phase string, predicts []*request, rate float64, stop <-chan struct{}) {
	start := time.Now()
	for i, req := range predicts {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		cn.do(ctx, phase, req, due)
	}
}
