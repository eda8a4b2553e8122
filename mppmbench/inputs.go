package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	mppm "repro"
	"repro/internal/wire"
)

// Scale and shape of every workload's inputs. The scale keeps the
// paper's 50 profiling intervals per benchmark at a tenth of its trace
// length, so warming all 174 (benchmark, config) profiles takes well
// under a second.
const (
	traceLength    = 1_000_000
	intervalLength = 20_000

	mixWidth   = 4    // programs per mix: the paper's four-core CMP
	sweepMixes = 2000 // mixes per sweep; times six configs = 12,000 rows
	stressTopK = 10   // rows a top_k stress search keeps

	predictRate = 100 // open-loop single-mix predicts per second

	// The compare list is fixed: it is drawn from compareSeed, not from
	// the workload seed, so every run walks the same mixes and the gap
	// over its first compareSetRows rows repeats exactly. Each request
	// carries compareMixesPerReq mixes on one config, and the configs
	// rotate, so the compare set holds four rows per config.
	compareSeed        = 2011
	compareListReqs    = 600
	compareMixesPerReq = 2
	compareSetRows     = 24

	postSweepRounds = 10 // sweep rotations validate runs after its timed phase
	postCompares    = 24 // compare requests serve and fleet send after theirs
)

// Sweep encodings, in the order a rotation sends them.
const (
	encJSON   = "json"
	encNDJSON = "ndjson"
	encWire   = "wire"
	encStress = "stress"
)

var rotation = [...]string{encJSON, encNDJSON, encWire, encStress}

// configNames are the six Table 2 LLC configurations, in order.
func configNames() []string {
	var out []string
	for _, c := range mppm.LLCConfigs() {
		out = append(out, c.Name)
	}
	return out
}

// request is one generated /v1/eval call: its JSON body and the grid it
// asks for, kept so the response can be checked against it.
type request struct {
	Kind    string // "sweep", "stress", "predict" or "compare"
	Enc     string // encJSON, encNDJSON or encWire; "json" for stress, predict and compare
	Body    []byte
	Mixes   [][]string
	Configs []string
}

// rows is the number of rows a full answer to the request holds.
func (r *request) rows() int {
	if r.Kind == "stress" {
		return min(stressTopK, len(r.Mixes)*len(r.Configs))
	}
	return len(r.Mixes) * len(r.Configs)
}

// gen draws mixes and requests from one seeded stream.
type gen struct {
	rng     *rand.Rand
	names   []string
	configs []string
}

func newGen(seed uint64, stream uint64) *gen {
	return &gen{
		rng:     rand.New(rand.NewPCG(seed, stream)),
		names:   mppm.BenchmarkNames(),
		configs: configNames(),
	}
}

// mix draws mixWidth distinct suite benchmarks.
func (g *gen) mix() []string {
	out := make([]string, 0, mixWidth)
	for len(out) < mixWidth {
		n := g.names[g.rng.IntN(len(g.names))]
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

func (g *gen) mixes(n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = g.mix()
	}
	return out
}

func mustBody(req wire.EvalRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("marshal request: %v", err)) // plain structs always marshal
	}
	return b
}

// sweep builds one sweep of fresh mixes over all six configs in the
// given encoding; encStress makes it a top_k search over the same grid.
func (g *gen) sweep(enc string) *request {
	mixes := g.mixes(sweepMixes)
	er := wire.EvalRequest{Mixes: mixes, Configs: g.configs}
	r := &request{Kind: "sweep", Enc: enc, Mixes: mixes, Configs: g.configs}
	switch enc {
	case encNDJSON:
		er.Stream = true
	case encStress:
		er.TopK = stressTopK
		r.Kind, r.Enc = "stress", encJSON
	}
	r.Body = mustBody(er)
	return r
}

// predict builds one single-mix predict on a seeded config.
func (g *gen) predict() *request {
	mix := g.mix()
	cfg := g.configs[g.rng.IntN(len(g.configs))]
	return &request{
		Kind: "predict", Enc: encJSON,
		Body:  mustBody(wire.EvalRequest{Mix: mix, Config: cfg}),
		Mixes: [][]string{mix}, Configs: []string{cfg},
	}
}

// inputs is everything one run sends, generated before any timing.
type inputs struct {
	sweeps     []*request // timed sweep rotation, cycling through rotation
	postSweeps []*request // validate's sweep rotation after its timed phase
	check      *request   // the seeded sweep fetched in every encoding
	predicts   []*request // open-loop single-mix predicts
	compares   []*request // the fixed compare list
}

// maxSweeps bounds the sweeps one timed phase can send: ten a second,
// several times the rate this tree reaches. The phase ends at the first
// rotation boundary past its length, or when the sweeps run out.
func maxSweeps(seconds int) int {
	n := seconds*10 + len(rotation)
	return n - n%len(rotation)
}

// newInputs generates a run's inputs from its seed. Each kind of input
// has its own stream, so changing the run length never changes the
// bodies of the requests both lengths send.
func newInputs(seed uint64, seconds, predicts int) *inputs {
	in := &inputs{}
	sg := newGen(seed, 1)
	for i := 0; i < maxSweeps(seconds); i++ {
		in.sweeps = append(in.sweeps, sg.sweep(rotation[i%len(rotation)]))
	}
	pg := newGen(seed, 2)
	for i := 0; i < postSweepRounds*len(rotation); i++ {
		in.postSweeps = append(in.postSweeps, pg.sweep(rotation[i%len(rotation)]))
	}
	in.check = newGen(seed, 3).sweep(encJSON)
	qg := newGen(seed, 4)
	for i := 0; i < predicts; i++ {
		in.predicts = append(in.predicts, qg.predict())
	}
	in.compares = compareList()
	return in
}

// compareList is the fixed, seed-independent list of compare requests.
// No (mix, config) pair repeats, since the engine caches simulations
// per pair and a repeat would skip the simulation it is meant to time.
func compareList() []*request {
	g := newGen(compareSeed, 0)
	seen := make(map[string]bool)
	out := make([]*request, compareListReqs)
	for i := range out {
		cfg := []string{g.configs[i%len(g.configs)]}
		var mixes [][]string
		for len(mixes) < compareMixesPerReq {
			m := g.mix()
			key := cfg[0] + "|" + strings.Join(m, ",")
			if !seen[key] {
				seen[key] = true
				mixes = append(mixes, m)
			}
		}
		out[i] = &request{
			Kind: "compare", Enc: encJSON,
			Body:  mustBody(wire.EvalRequest{Kind: "compare", Mixes: mixes, Configs: cfg}),
			Mixes: mixes, Configs: cfg,
		}
	}
	return out
}

// withEncoding returns a copy of a sweep or compare request asking for
// enc.
func withEncoding(r *request, enc string) *request {
	er := wire.EvalRequest{Mixes: r.Mixes, Configs: r.Configs, Stream: enc == encNDJSON}
	if r.Kind == "compare" {
		er.Kind = r.Kind
	}
	return &request{Kind: r.Kind, Enc: enc, Body: mustBody(er), Mixes: r.Mixes, Configs: r.Configs}
}
