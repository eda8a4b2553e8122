package main

// Output checks, made apart from the program: every value a response
// carries is recomputed here from its own inputs with the benchmark's
// code, never by asking mppmd again.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Paper-level accuracy bounds on the mean gap over the compare set, the
// same ones internal/experiments asserts.
const (
	maxSTPGapPct  = 8.0
	maxANTTGapPct = 10.0
)

// decodeRows parses a /v1/eval response body in the given encoding.
func decodeRows(enc string, body []byte) ([]wire.ScenarioResult, error) {
	switch enc {
	case encJSON:
		var resp service.EvalResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("decode JSON response: %w", err)
		}
		return resp.Scenarios, nil
	case encNDJSON:
		var rows []wire.ScenarioResult
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var row wire.ScenarioResult
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				return nil, fmt.Errorf("decode NDJSON line %d: %w", len(rows)+1, err)
			}
			rows = append(rows, row)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("read NDJSON: %w", err)
		}
		return rows, nil
	case encWire:
		rd, err := wire.NewReader(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("decode wire header: %w", err)
		}
		var rows []wire.ScenarioResult
		for {
			row, err := rd.Next()
			if errors.Is(err, io.EOF) {
				return rows, nil
			}
			if err != nil {
				return nil, fmt.Errorf("decode wire row %d: %w", len(rows), err)
			}
			rows = append(rows, *row)
		}
	}
	return nil, fmt.Errorf("unknown encoding %q", enc)
}

// checkResponse decodes a response and checks it against its request:
// a full grid in config-major order for sweeps, predicts and compares,
// the k lowest-STP rows from the grid for a stress search, and every
// row's own arithmetic.
func checkResponse(req *request, body []byte) ([]wire.ScenarioResult, error) {
	rows, err := decodeRows(req.Enc, body)
	if err != nil {
		return nil, err
	}
	if req.Kind == "stress" {
		return rows, checkStress(req, rows)
	}
	if len(rows) != req.rows() {
		return nil, fmt.Errorf("%d rows, want %d", len(rows), req.rows())
	}
	for c, cfg := range req.Configs {
		for m, mix := range req.Mixes {
			row := &rows[c*len(req.Mixes)+m]
			if row.Config != cfg || !slices.Equal(row.Mix, mix) {
				return nil, fmt.Errorf("row %d is (%v, %s), want (%v, %s)",
					c*len(req.Mixes)+m, row.Mix, row.Config, mix, cfg)
			}
			if err := checkRow(req.Kind, row); err != nil {
				return nil, fmt.Errorf("row %d (%v, %s): %w", c*len(req.Mixes)+m, mix, cfg, err)
			}
		}
	}
	return rows, nil
}

// checkStress checks a top_k answer: k valid rows of the request's
// grid, distinct, in ascending STP order (worst first).
func checkStress(req *request, rows []wire.ScenarioResult) error {
	if len(rows) != req.rows() {
		return fmt.Errorf("%d rows, want %d", len(rows), req.rows())
	}
	// A seeded grid may hold a mix twice, so count each (mix, config).
	grid := make(map[string]int, len(req.Mixes)*len(req.Configs))
	for _, cfg := range req.Configs {
		for _, mix := range req.Mixes {
			grid[cfg+"|"+strings.Join(mix, ",")]++
		}
	}
	for i := range rows {
		key := rows[i].Config + "|" + strings.Join(rows[i].Mix, ",")
		if grid[key] == 0 {
			return fmt.Errorf("stress row %d (%v, %s) is not in the grid, or repeats more often than it does", i, rows[i].Mix, rows[i].Config)
		}
		grid[key]--
		if err := checkRow("predict", &rows[i]); err != nil {
			return fmt.Errorf("stress row %d: %w", i, err)
		}
		if i > 0 && rows[i].Prediction.STP < rows[i-1].Prediction.STP {
			return fmt.Errorf("stress rows %d and %d are not worst first", i-1, i)
		}
	}
	return nil
}

// checkRow checks one row: no error, the blocks its kind calls for, and
// each block's arithmetic; a compare row's two blocks must share their
// single-core CPIs and carry their recomputed relative errors.
func checkRow(kind string, row *wire.ScenarioResult) error {
	if row.Error != "" {
		return fmt.Errorf("row error: %s", row.Error)
	}
	switch kind {
	case "sweep", "predict", "stress":
		if row.Prediction == nil || row.Measurement != nil {
			return fmt.Errorf("predict row must carry a prediction only")
		}
		return checkMetrics(row.Prediction, row.Mix)
	case "compare":
		p, m := row.Prediction, row.Measurement
		if p == nil || m == nil {
			return fmt.Errorf("compare row must carry a prediction and a measurement")
		}
		if err := checkMetrics(p, row.Mix); err != nil {
			return fmt.Errorf("prediction: %w", err)
		}
		if err := checkMetrics(m, row.Mix); err != nil {
			return fmt.Errorf("measurement: %w", err)
		}
		if !reflect.DeepEqual(p.SingleCPI, m.SingleCPI) {
			return fmt.Errorf("prediction and measurement single-core CPIs differ")
		}
		if got, want := row.STPError, (p.STP-m.STP)/m.STP; got != want {
			return fmt.Errorf("stp_error %v, recomputed %v", got, want)
		}
		if got, want := row.ANTTError, (p.ANTT-m.ANTT)/m.ANTT; got != want {
			return fmt.Errorf("antt_error %v, recomputed %v", got, want)
		}
		return nil
	}
	return fmt.Errorf("unknown row kind %q", kind)
}

// checkMetrics recomputes one block's STP, ANTT and slowdowns from its
// own CPIs, in the same operation order the model and simulator use,
// so the comparison is exact and a single flipped bit shows.
func checkMetrics(m *wire.Metrics, mix []string) error {
	n := len(mix)
	if !slices.Equal(m.Benchmarks, mix) {
		return fmt.Errorf("benchmarks %v, want %v", m.Benchmarks, mix)
	}
	if len(m.SingleCPI) != n || len(m.MultiCPI) != n || len(m.Slowdown) != n {
		return fmt.Errorf("per-program vectors are not %d long", n)
	}
	stp, antt := 0.0, 0.0
	for p := 0; p < n; p++ {
		sc, mc, sd := m.SingleCPI[p], m.MultiCPI[p], m.Slowdown[p]
		if !(sc > 0) || !(mc > 0) || math.IsInf(sc, 0) || math.IsInf(mc, 0) {
			return fmt.Errorf("program %d: CPIs %v, %v not positive and finite", p, sc, mc)
		}
		// The model derives the multi-core CPI from the slowdown, the
		// simulator the slowdown from the multi-core CPI.
		if mc != sc*sd && sd != mc/sc {
			return fmt.Errorf("program %d: slowdown %v does not match CPIs %v, %v", p, sd, sc, mc)
		}
		stp += sc / mc
		antt += mc / sc
	}
	antt /= float64(n)
	if m.STP != stp {
		return fmt.Errorf("stp %v, recomputed %v", m.STP, stp)
	}
	if m.ANTT != antt {
		return fmt.Errorf("antt %v, recomputed %v", m.ANTT, antt)
	}
	return nil
}

// checkSameRows requires two decodings of one grid to be identical,
// field for field and bit for bit.
func checkSameRows(what string, a, b []wire.ScenarioResult) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d rows vs %d", what, len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Errorf("%s: row %d differs: %+v vs %+v", what, i, a[i], b[i])
		}
	}
	return nil
}

// cpiSample is one (benchmark, config) pair whose single-core CPI a
// sweep reported.
type cpiSample struct {
	Bench, Config string
	CPI           float64
}

// sampleCPIs picks n seeded (benchmark, config) pairs out of a checked
// sweep's rows, with the single-core CPI each row reported.
func sampleCPIs(g *gen, rows []wire.ScenarioResult, n int) []cpiSample {
	var out []cpiSample
	for len(out) < n && len(rows) > 0 {
		row := &rows[g.rng.IntN(len(rows))]
		p := g.rng.IntN(len(row.Mix))
		out = append(out, cpiSample{row.Mix[p], row.Config, row.Prediction.SingleCPI[p]})
	}
	return out
}

// checkDirectCPIs recomputes each sampled single-core CPI with a direct
// sim.ProfileSource pass over the benchmark's trace. That pass bypasses
// the record/replay pipeline and the server entirely.
func checkDirectCPIs(ctx context.Context, samples []cpiSample) error {
	for _, s := range samples {
		spec, err := trace.ByName(s.Bench)
		if err != nil {
			return err
		}
		llc, err := cache.LLCConfigByName(s.Config)
		if err != nil {
			return err
		}
		cfg := sim.DefaultConfig(llc)
		cfg.TraceLength, cfg.IntervalLength = traceLength, intervalLength
		rd, err := trace.NewReader(spec, traceLength)
		if err != nil {
			return err
		}
		prof, err := sim.ProfileSource(ctx, rd, cfg, sim.ProfileOptions{})
		if err != nil {
			return fmt.Errorf("direct profile of %s on %s: %w", s.Bench, s.Config, err)
		}
		if prof.CPI() != s.CPI {
			return fmt.Errorf("%s on %s: served single-core CPI %v, direct pass %v",
				s.Bench, s.Config, s.CPI, prof.CPI())
		}
	}
	return nil
}

// compareGaps returns the mean |predicted - simulated| / simulated STP
// and ANTT, in percent, over compare rows.
func compareGaps(rows []wire.ScenarioResult) (stpPct, anttPct float64) {
	for i := range rows {
		p, m := rows[i].Prediction, rows[i].Measurement
		stpPct += math.Abs(p.STP-m.STP) / m.STP
		anttPct += math.Abs(p.ANTT-m.ANTT) / m.ANTT
	}
	n := float64(len(rows))
	return 100 * stpPct / n, 100 * anttPct / n
}
