package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	mppm "repro"
	"repro/internal/service"
	"repro/internal/wire"
)

func TestSameSeedSameBodies(t *testing.T) {
	a, b := newInputs(7, 2, 50), newInputs(7, 2, 50)
	all := func(in *inputs) []*request {
		out := append([]*request(nil), in.sweeps...)
		out = append(out, in.postSweeps...)
		out = append(out, in.check)
		out = append(out, in.predicts...)
		return append(out, in.compares...)
	}
	ra, rb := all(a), all(b)
	if len(ra) != len(rb) {
		t.Fatalf("%d vs %d requests", len(ra), len(rb))
	}
	for i := range ra {
		if !bytes.Equal(ra[i].Body, rb[i].Body) {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
	}
	if c := newInputs(8, 2, 50); bytes.Equal(c.sweeps[0].Body, a.sweeps[0].Body) {
		t.Fatal("seeds 7 and 8 give the same first sweep")
	}
	if long := newInputs(7, 9, 50); !bytes.Equal(long.sweeps[0].Body, a.sweeps[0].Body) {
		t.Fatal("the run length changed the first sweep")
	}
}

// served evaluates a small grid in-process through the service handler
// and returns the request with its response in each encoding.
type served struct {
	req   *request
	json  []byte
	ndj   []byte
	wire  []byte
	rows  []wire.ScenarioResult
	check func(enc string, body []byte) error
}

func serveSmall(t *testing.T, sys *mppm.System, kind string) *served {
	t.Helper()
	g := newGen(3, 9)
	req := &request{Kind: kind, Enc: encJSON, Mixes: g.mixes(3), Configs: []string{"config#2", "config#5"}}
	if kind == "compare" {
		req.Mixes, req.Configs = req.Mixes[:1], req.Configs[:1]
	}
	er := wire.EvalRequest{Mixes: req.Mixes, Configs: req.Configs}
	if kind == "compare" {
		er.Kind = "compare"
	}
	req.Body = mustBody(er)
	h := service.New(sys).Handler()
	s := &served{req: req}
	var err error
	if s.json, err = serveHandler(h, req.Body, ""); err != nil {
		t.Fatal(err)
	}
	if s.ndj, err = serveHandler(h, withEncoding(req, encNDJSON).Body, ""); err != nil {
		t.Fatal(err)
	}
	if s.wire, err = serveHandler(h, req.Body, wire.ContentType); err != nil {
		t.Fatal(err)
	}
	s.check = func(enc string, body []byte) error {
		r := *req
		r.Enc = enc
		_, err := checkResponse(&r, body)
		return err
	}
	for enc, body := range map[string][]byte{encJSON: s.json, encNDJSON: s.ndj, encWire: s.wire} {
		if err := s.check(enc, body); err != nil {
			t.Fatalf("unmodified %s response rejected: %v", enc, err)
		}
	}
	if s.rows, err = decodeRows(encJSON, s.json); err != nil {
		t.Fatal(err)
	}
	return s
}

func flipBit(f *float64, bit uint) { *f = math.Float64frombits(math.Float64bits(*f) ^ 1<<bit) }

// rejectJSON re-encodes rows after mutate and requires the check to fail.
func rejectJSON(t *testing.T, s *served, what string, mutate func(rows []wire.ScenarioResult)) {
	t.Helper()
	rows, err := decodeRows(encJSON, s.json)
	if err != nil {
		t.Fatal(err)
	}
	mutate(rows)
	body, err := json.Marshal(service.EvalResponse{Kind: s.req.Kind, Mixes: len(s.req.Mixes), Configs: s.req.Configs, Scenarios: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(encJSON, body); err == nil {
		t.Errorf("%s: check accepted a corrupted response", what)
	}
}

func TestChecksRejectCorruption(t *testing.T) {
	ctx := context.Background()
	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(traceLength, intervalLength))
	s := serveSmall(t, sys, "sweep")

	for _, bit := range []uint{0, 20, 51} {
		rejectJSON(t, s, "flipped multi-core CPI bit "+strconv.Itoa(int(bit)), func(rows []wire.ScenarioResult) {
			flipBit(&rows[4].Prediction.MultiCPI[2], bit)
		})
	}
	rejectJSON(t, s, "flipped single-core CPI bit", func(rows []wire.ScenarioResult) {
		flipBit(&rows[1].Prediction.SingleCPI[0], 33)
	})
	rejectJSON(t, s, "dropped row", func(rows []wire.ScenarioResult) { rows[5] = rows[4] })

	lines := bytes.SplitAfter(s.ndj, []byte("\n"))
	lines[0], lines[1] = lines[1], lines[0]
	if err := s.check(encNDJSON, bytes.Join(lines, nil)); err == nil {
		t.Error("check accepted a reordered NDJSON stream")
	}
	for _, cut := range []int{1, 9, len(s.wire) / 2} {
		if err := s.check(encWire, s.wire[:len(s.wire)-cut]); err == nil {
			t.Errorf("check accepted a wire stream truncated by %d bytes", cut)
		}
	}

	// The direct profiling pass agrees with the served CPI, and not with
	// a CPI one bit away from it.
	sample := []cpiSample{{s.rows[0].Mix[0], s.rows[0].Config, s.rows[0].Prediction.SingleCPI[0]}}
	if err := checkDirectCPIs(ctx, sample); err != nil {
		t.Fatalf("direct pass disagrees with the served CPI: %v", err)
	}
	flipBit(&sample[0].CPI, 0)
	if err := checkDirectCPIs(ctx, sample); err == nil {
		t.Error("direct pass accepted a CPI one bit off")
	}

	// Two decodings of one grid must match bit for bit.
	a, _ := decodeRows(encJSON, s.json)
	b, _ := decodeRows(encWire, s.wire)
	if err := checkSameRows("json vs wire", a, b); err != nil {
		t.Fatalf("unmodified encodings differ: %v", err)
	}
	flipBit(&b[3].Prediction.Slowdown[1], 7)
	if err := checkSameRows("json vs wire", a, b); err == nil {
		t.Error("cross-encoding check accepted differing rows")
	}

	// A stress answer must be worst first.
	stress := &request{Kind: "stress", Enc: encJSON, Mixes: s.req.Mixes, Configs: s.req.Configs}
	worst := append([]wire.ScenarioResult(nil), s.rows...)
	for i := range worst {
		for j := i + 1; j < len(worst); j++ {
			if worst[j].Prediction.STP < worst[i].Prediction.STP {
				worst[i], worst[j] = worst[j], worst[i]
			}
		}
	}
	if err := checkStress(stress, worst); err != nil {
		t.Fatalf("sorted stress rows rejected: %v", err)
	}
	worst[0], worst[1] = worst[1], worst[0]
	if err := checkStress(stress, worst); err == nil {
		t.Error("stress check accepted rows out of order")
	}

	c := serveSmall(t, sys, "compare")
	rejectJSON(t, c, "altered stp_error", func(rows []wire.ScenarioResult) { rows[0].STPError *= 1.5 })
	rejectJSON(t, c, "flipped simulated CPI bit", func(rows []wire.ScenarioResult) {
		flipBit(&rows[0].Measurement.MultiCPI[1], 40)
	})
}

// TestRunReapsServersAndRemovesStores runs the fleet workload for one
// second against mppmd built from this tree and checks the run is
// correct, every server it started has been reaped, and its temporary
// stores are gone.
func TestRunReapsServersAndRemovesStores(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mppmd and runs a workload")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "mppmd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/mppmd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build mppmd: %v\n%s", err, out)
	}
	p := newProcs()
	res, err := run(context.Background(), options{workload: "fleet", seed: 5, seconds: 1, root: root, mppmd: bin}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("fleet run: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(p.started) < 2*setupRepeats {
		t.Fatalf("%d processes started, want at least %d", len(p.started), 2*setupRepeats)
	}
	for _, pid := range p.started {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("server pid %d still exists after the run (kill 0: %v)", pid, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, ".bench_build"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") || strings.HasPrefix(e.Name(), "traced-") {
			t.Errorf("temporary directory %s left behind", e.Name())
		}
	}
}

// TestOnlyAllowedEndpoints keeps the benchmark on the canonical API:
// /v1/eval with Accept/format negotiation, /v1/warmup, /v1/readyz,
// /v1/stats and /metrics, default shard transport, no compat endpoint.
func TestOnlyAllowedEndpoints(t *testing.T) {
	allowed := map[string]bool{"/v1/eval": true, "/v1/warmup": true, "/v1/readyz": true, "/v1/stats": true, "/metrics": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			v, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if strings.Contains(v, "shard-json") {
				t.Errorf("%s: %s forces the NDJSON shard transport", fset.Position(lit.Pos()), v)
			}
			if (strings.HasPrefix(v, "/v1/") || v == "/metrics" || strings.HasPrefix(v, "/healthz")) && !allowed[v] {
				t.Errorf("%s: endpoint %s is outside the canonical API", fset.Position(lit.Pos()), v)
			}
			return true
		})
	}
}
