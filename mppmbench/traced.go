package main

// The traced run: each layer's public entry points called in one
// process under the benchmark's own timer, on the run's seeded inputs.
// It starts no mppmd. Spans are kept in memory and written to
// .bench_build/spans/ when the run ends.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mppm "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/pool"
	"repro/internal/fleet"
	"repro/internal/profile"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// span is one timed call. Parent is 0 for the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// tracer records nested spans from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

// time runs f under a span named name, child of the innermost open span,
// and returns the span's duration in seconds.
func (t *tracer) time(name string, f func() error) (float64, error) {
	sp := span{ID: len(t.spans) + 1, Name: name, Start: time.Since(t.t0).Seconds()}
	if n := len(t.stack); n > 0 {
		sp.Parent = t.stack[n-1]
	}
	t.spans = append(t.spans, sp)
	t.stack = append(t.stack, sp.ID)
	err := f()
	t.stack = t.stack[:len(t.stack)-1]
	end := time.Since(t.t0).Seconds()
	t.spans[sp.ID-1].End = end
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return end - sp.Start, nil
}

// sweepRepeats is how often the traced run repeats each call on the
// sweep path; it reports the median.
const sweepRepeats = 3

// median runs f sweepRepeats times, each under its own span, and
// returns the median duration.
func (t *tracer) median(name string, f func() error) (float64, error) {
	ds := make([]float64, sweepRepeats)
	for i := range ds {
		var err error
		if ds[i], err = t.time(name, f); err != nil {
			return 0, err
		}
	}
	return percentile(ds, 50), nil
}

// finish fills each span's self time: its duration minus the part of
// it its children cover. Children of one span never overlap, since one
// goroutine opens them in turn.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			t.spans[sp.Parent-1].Self -= sp.End - sp.Start
		}
	}
}

func simConfig(llc cache.Config) sim.Config {
	cfg := sim.DefaultConfig(llc)
	cfg.TraceLength, cfg.IntervalLength = traceLength, intervalLength
	return cfg
}

// serveHandler sends one request body through h into an in-memory
// recorder and returns the response body.
func serveHandler(h http.Handler, body []byte, accept string) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// tracedRun times each layer and adds the per-layer metrics to m.
func tracedRun(ctx context.Context, in *inputs, build string, o options, m map[string]metric) error {
	tmp, err := os.MkdirTemp(build, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	t := &tracer{t0: time.Now()}
	_, err = t.time("traced", func() error { return traceLayers(ctx, t, in, tmp, m) })
	if err != nil {
		return err
	}
	t.finish()
	dir := filepath.Join(build, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}

func traceLayers(ctx context.Context, t *tracer, in *inputs, tmp string, m map[string]metric) error {
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	suite := trace.Suite()
	llcs := cache.LLCConfigs()
	base := simConfig(llcs[0])
	nprof := float64(len(suite) * len(llcs))

	// Profiling: record each frontend once, replay it per config, then
	// the engine's cold warm path over the same work on one worker.
	recs := make([]*sim.Recording, len(suite))
	recordS, err := t.time("sim.record", func() error {
		for i, spec := range suite {
			var err error
			if recs[i], err = sim.RecordSpec(ctx, spec, base); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("sim.record_s", "s", recordS)
	set("sim.record_minstr_per_s", "Minstr/s", float64(len(suite))*traceLength/1e6/recordS)

	profs := make([][]*profile.Profile, len(llcs))
	replayS, err := t.time("sim.replay", func() error {
		for c, llc := range llcs {
			cfg := simConfig(llc)
			for _, rec := range recs {
				p, err := rec.Replay(ctx, cfg, sim.ProfileOptions{})
				if err != nil {
					return err
				}
				profs[c] = append(profs[c], p)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("sim.replay_s", "s", replayS)
	set("sim.replay_ms_per_profile", "ms", 1000*replayS/nprof)

	var sets []*profile.Set
	warmS, err := t.time("engine.warm", func() error {
		eng := engine.New(engine.Config{TraceLength: traceLength, IntervalLength: intervalLength, Workers: 1})
		var err error
		sets, err = eng.ProfileConfigs(ctx, suite, llcs)
		return err
	})
	if err != nil {
		return err
	}
	set("engine.warm_s", "s", warmS)
	set("engine.warm_self_s", "s", warmS-recordS-replayS)

	// Store: persist and reload every recording and profile.
	storeDir := filepath.Join(tmp, "store")
	st := store.Open(storeDir)
	saveS, err := t.time("store.save", func() error {
		for i, spec := range suite {
			if err := st.SaveRecording(spec, base, recs[i]); err != nil {
				return err
			}
		}
		for c, llc := range llcs {
			for i, spec := range suite {
				if err := st.SaveProfile(spec, simConfig(llc), sim.ProfileOptions{}, profs[c][i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	loadS, err := t.time("store.load", func() error {
		for _, spec := range suite {
			if _, ok := st.LoadRecording(spec, base); !ok {
				return fmt.Errorf("recording of %s did not load", spec.Name)
			}
		}
		for _, llc := range llcs {
			for _, spec := range suite {
				if _, ok := st.LoadProfile(spec, simConfig(llc), sim.ProfileOptions{}); !ok {
					return fmt.Errorf("profile of %s on %s did not load", spec.Name, llc.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	size, err := st.SizeBytes()
	if err != nil {
		return err
	}
	set("store.save_s", "s", saveS)
	set("store.load_s", "s", loadS)
	set("store.artifact_bytes", "B", float64(size))

	// Peer fetch: a replica over the store serves every profile.
	peerSys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(traceLength, intervalLength), mppm.WithStore(storeDir))
	peer := httptest.NewServer(service.New(peerSys).Handler())
	defer peer.Close()
	fetchS, err := t.time("fleet.artifact_fetch", func() error {
		cl := fleet.NewClient(peer.URL, nil)
		for _, llc := range llcs {
			for _, spec := range suite {
				_, ok, err := cl.Artifact(ctx, string(store.KindProfiles), store.ProfileKey(spec, simConfig(llc), sim.ProfileOptions{}))
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("peer has no profile of %s on %s", spec.Name, llc.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("fleet.artifact_fetch_s", "s", fetchS)

	// The sweep path, layer by layer, on the run's first sweep.
	sweep := in.sweeps[0]
	rows := float64(sweep.rows())
	us := func(s float64) float64 { return 1e6 * s / rows }
	// The kernel runs on as many goroutines as the engine has workers,
	// each with its own Kernel, so its wall time per row compares with
	// engine.eval's.
	workers := runtime.GOMAXPROCS(0)
	iters := make([]int, workers)
	kernelS, err := t.median("core.kernel", func() error {
		clear(iters)
		return pool.Map(ctx, workers, workers, func(_ context.Context, w int) error {
			k := core.NewKernel()
			ps := make([]*profile.Profile, mixWidth)
			for i := w; i < sweep.rows(); i += workers {
				c, mix := i/len(sweep.Mixes), sweep.Mixes[i%len(sweep.Mixes)]
				for j, name := range mix {
					var err error
					if ps[j], err = sets[c].Get(name); err != nil {
						return err
					}
				}
				res, err := k.Run(ps, core.Options{})
				if err != nil {
					return err
				}
				iters[w] += res.Iterations
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	set("core.kernel_us_per_row", "us", us(kernelS))
	total := 0
	for _, n := range iters {
		total += n
	}
	set("core.iterations_per_row", "count", float64(total)/rows)

	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(traceLength, intervalLength))
	if _, err := t.time("system.warm", func() error { _, err := sys.Warm(ctx, mppm.LLCConfigs()...); return err }); err != nil {
		return err
	}
	var mreq mppm.Request
	decodeS, err := t.median("service.decode", func() error {
		var er wire.EvalRequest
		if err := json.Unmarshal(sweep.Body, &er); err != nil {
			return err
		}
		var err error
		mreq, err = service.BuildRequest(er, nil)
		return err
	})
	if err != nil {
		return err
	}
	set("service.decode_ms", "ms", 1000*decodeS)
	evalS, err := t.median("engine.eval", func() error {
		_, err := sys.Eval(ctx, mreq)
		return err
	})
	if err != nil {
		return err
	}
	set("engine.eval_us_per_row", "us", us(evalS))
	set("engine.dispatch_us_per_row", "us", us(evalS-kernelS))

	// The handler, into an in-memory recorder, once per encoding.
	// Its self time past decode and eval is rendering.
	h := service.New(sys).Handler()
	var jsonBody []byte
	for _, e := range []struct{ enc, accept string }{
		{encJSON, ""}, {encNDJSON, ""}, {encWire, wire.ContentType},
	} {
		req := withEncoding(sweep, e.enc)
		s, err := t.median("service.handler."+e.enc, func() error {
			b, err := serveHandler(h, req.Body, e.accept)
			if e.enc == encJSON {
				jsonBody = b
			}
			return err
		})
		if err != nil {
			return err
		}
		set("service.handler_"+e.enc+"_us_per_row", "us", us(s))
		set("service.render_"+e.enc+"_us_per_row", "us", us(s-evalS-decodeS))
	}
	// The same JSON sweep with no span open, so the tracer's own cost
	// shows against service.handler_json_us_per_row.
	untraced := make([]float64, sweepRepeats)
	for i := range untraced {
		start := time.Now()
		if _, err := serveHandler(h, withEncoding(sweep, encJSON).Body, ""); err != nil {
			return err
		}
		untraced[i] = time.Since(start).Seconds()
	}
	set("service.handler_json_untraced_us_per_row", "us", us(percentile(untraced, 50)))

	stress := in.sweeps[3]
	stressS, err := t.median("service.handler.stress", func() error {
		_, err := serveHandler(h, stress.Body, "")
		return err
	})
	if err != nil {
		return err
	}
	set("service.handler_stress_us_per_scenario", "us", 1e6*stressS/float64(len(stress.Mixes)*len(stress.Configs)))
	predicts := in.predicts[:min(len(in.predicts), 1000)]
	predictS, err := t.time("service.handler.predict", func() error {
		for _, p := range predicts {
			if _, err := serveHandler(h, p.Body, ""); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("service.handler_predict_us", "us", 1e6*predictS/float64(len(predicts)))

	// Row codecs over the sweep's rows.
	results, err := decodeRows(encJSON, jsonBody)
	if err != nil {
		return err
	}
	ndjsonS, err := t.median("service.ndjson_encode", func() error {
		for i := range results {
			if _, err := service.MarshalScenarioLine(&results[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("service.ndjson_encode_us_per_row", "us", us(ndjsonS))
	var stream bytes.Buffer
	encS, err := t.median("wire.encode", func() error {
		stream.Reset()
		wr, err := wire.NewWriter(&stream, wire.StreamHeader{Kind: "predict", Configs: sweep.Configs, Mixes: sweep.Mixes})
		if err != nil {
			return err
		}
		for i := range results {
			if err := wr.WriteRow(&results[i]); err != nil {
				return err
			}
		}
		return wr.Close()
	})
	if err != nil {
		return err
	}
	decS, err := t.median("wire.decode", func() error {
		rd, err := wire.NewReader(bytes.NewReader(stream.Bytes()))
		if err != nil {
			return err
		}
		for {
			if _, err := rd.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	set("wire.encode_us_per_row", "us", us(encS))
	set("wire.decode_us_per_row", "us", us(decS))

	// The detailed simulator on one compare mix per config.
	var simRows int
	multiS, err := t.time("sim.multicore", func() error {
		for _, req := range in.compares[:len(llcs)] {
			llc, err := cache.LLCConfigByName(req.Configs[0])
			if err != nil {
				return err
			}
			var specs []trace.Spec
			for _, name := range req.Mixes[0] {
				spec, err := trace.ByName(name)
				if err != nil {
					return err
				}
				specs = append(specs, spec)
			}
			if _, err := sim.RunMulticore(ctx, specs, simConfig(llc), nil); err != nil {
				return err
			}
			simRows++
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("sim.multicore_s", "s", multiS)
	set("sim.multicore_minstr_per_s", "Minstr/s", float64(simRows*mixWidth)*traceLength/1e6/multiS)

	// The fleet: a coordinator over two in-process replicas.
	r1 := httptest.NewServer(service.New(sys).Handler())
	defer r1.Close()
	r2 := httptest.NewServer(service.New(sys).Handler())
	defer r2.Close()
	coord, err := fleet.New(fleet.Config{Peers: []string{r1.URL, r2.URL}, DefaultConfig: mppm.DefaultLLC().Name})
	if err != nil {
		return err
	}
	fh := coord.Mount(service.New(sys).Handler())
	fleetS, err := t.median("fleet.handler", func() error {
		_, err := serveHandler(fh, withEncoding(sweep, encNDJSON).Body, "")
		return err
	})
	if err != nil {
		return err
	}
	set("fleet.handler_us_per_row", "us", us(fleetS))
	shard := wire.EvalRequest{Mixes: sweep.Mixes[:len(sweep.Mixes)/2], Configs: sweep.Configs, Stream: true}
	shardRows := 0
	shardS, err := t.median("fleet.shard_stream", func() error {
		shardRows = 0
		return fleet.NewClient(r1.URL, nil).StreamEval(ctx, shard, func(*service.ScenarioResult) error {
			shardRows++
			return nil
		})
	})
	if err != nil {
		return err
	}
	if want := len(shard.Mixes) * len(shard.Configs); shardRows != want {
		return fmt.Errorf("shard stream returned %d rows, want %d", shardRows, want)
	}
	set("fleet.shard_stream_us_per_row", "us", 1e6*shardS/float64(shardRows))
	return nil
}
