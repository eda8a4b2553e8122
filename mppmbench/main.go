// Command mppmbench is the end-to-end benchmark of mppmd. It launches
// mppmd from the checkout as separate processes, drives POST /v1/eval
// over at most two connections, checks every answer apart from the
// program, and prints one JSON result line:
//
//	bash mppmbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload for its counter deltas, then a traced in-process run of each
// layer's entry points, and prints the per-layer metrics. --steady N
// repeats every workload N times and prints each end-to-end metric's
// median and quartiles next to its bound. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	mppm "repro"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/wire"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string
	mppmd    string
	steady   int
}

// setupRepeats is how many times a run sets its servers up; setup_s is
// the median.
const setupRepeats = 5

// workload describes a run's servers and traffic. In the timed phase,
// connection 2 always sends open-loop predicts; connection 1 sends
// sweep rotations, or compares when compare is set. After the timed
// phase ("post"), connection 1 sends the other of the two, so every
// workload reports every metric.
type workload struct {
	fleet   bool
	compare bool
}

var workloads = map[string]workload{
	"serve":    {},
	"validate": {compare: true},
	"fleet":    {fleet: true},
}

// phase returns the phase whose records give a metric: "timed" when
// the workload times that traffic, else "post".
func phase(timed bool) string {
	if timed {
		return "timed"
	}
	return "post"
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: serve, validate or fleet")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the traced run")
	flag.StringVar(&o.root, "root", ".", "checkout root (holds BENCHMARK.json; outputs go to .bench_build/)")
	flag.StringVar(&o.mppmd, "mppmd", "", "mppmd binary built from the checkout")
	flag.IntVar(&o.steady, "steady", 0, "repeat every workload (or only --workload) this many times with fresh seeds and print the spread of each end-to-end metric")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.steady > 0 {
		if err := steady(ctx, o); err != nil {
			fmt.Fprintln(os.Stderr, "mppmbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(ctx, o, newProcs())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mppmbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mppmbench:", err)
		os.Exit(1)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(os.Stderr, "%-44s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one run's state.
type runner struct {
	o       options
	w       workload
	in      *inputs
	p       *procs
	tmp     string
	servers []*server
	front   *server

	problems []string // run-level check failures
}

func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "mppmbench: check failed:", msg)
	r.problems = append(r.problems, msg)
}

// run runs one workload; p starts and reaps its servers.
func run(ctx context.Context, o options, p *procs) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve, validate or fleet)", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if o.mppmd == "" {
		return nil, fmt.Errorf("--mppmd names no binary (run through run.sh)")
	}
	build := filepath.Join(o.root, ".bench_build")
	r := &runner{
		o: o, w: w,
		in:  newInputs(o.seed, o.seconds, predictRate*o.seconds),
		p:   p,
		tmp: filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
	}
	defer os.RemoveAll(r.tmp)
	defer r.p.stopAll()

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		r.p.stopAll()
		if err := os.RemoveAll(r.tmp); err != nil {
			return nil, err
		}
		d, err := r.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d)
		fmt.Fprintf(os.Stderr, "mppmbench: set-up %d took %.3f s\n", i+1, d)
	}
	setupStats, err := r.allStats(ctx)
	if err != nil {
		return nil, err
	}

	before, beforeStats, err := r.counters(ctx)
	if err != nil {
		return nil, err
	}
	cl := newClient(r.front.base, time.Now())
	c1, c2 := cl.conn(), cl.conn()
	defer c1.close()
	defer c2.close()
	d := time.Duration(o.seconds) * time.Second
	var compareSet []wire.ScenarioResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		c2.openLoop(ctx, "timed", r.in.predicts, predictRate, nil)
	}()
	if w.compare {
		compareSet = c1.compareLoop(ctx, "timed", r.in.compares, d, compareSetRows/compareMixesPerReq)
	} else {
		c1.sweepLoop(ctx, "timed", r.in.sweeps, d)
	}
	<-done
	rss := 0.0
	for _, s := range r.servers {
		mb, err := peakRSSMB(s.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	after, afterStats, err := r.counters(ctx)
	if err != nil {
		return nil, err
	}

	// After the timed phase: the traffic this workload does not time, so
	// every run reports every end-to-end metric. It runs beside the open
	// loop, as the timed phase does: alone on a half-idle machine, sweep
	// rates swung by 15-20% between runs.
	stop, postDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(postDone)
		c2.openLoop(ctx, "post", r.in.predicts, predictRate, stop)
	}()
	if w.compare {
		c1.sweepLoop(ctx, "post", r.in.postSweeps, time.Duration(math.MaxInt64))
	} else {
		compareSet = c1.compareLoop(ctx, "post", r.in.compares[:postCompares], time.Duration(math.MaxInt64),
			compareSetRows/compareMixesPerReq)
	}
	close(stop)
	<-postDone
	r.checkAll(ctx, c1, compareSet, beforeStats, afterStats)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	recs := cl.snapshot()
	if err := writeRecords(build, o, recs); err != nil {
		return nil, err
	}
	res := &result{Attempted: len(recs), Metrics: map[string]metric{}}
	for _, rec := range recs {
		if rec.Err != "" {
			res.Failed++
			fmt.Fprintf(os.Stderr, "mppmbench: %s %s request failed: %s\n", rec.Kind, rec.Encoding, rec.Err)
		}
	}
	res.Correct = res.Failed == 0 && len(r.problems) == 0
	if o.trace == 0 {
		r.endToEnd(res.Metrics, recs, setups, rss, compareSet)
	} else {
		r.layerCounters(res.Metrics, recs, setupStats, before, after, beforeStats, afterStats)
		r.p.stopAll()
		if err := tracedRun(ctx, r.in, build, o, res.Metrics); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

// setup launches the workload's servers until every one is ready and
// warm for all six configs, and returns how long that took.
func (r *runner) setup(ctx context.Context) (float64, error) {
	bin := r.o.mppmd
	if !r.w.fleet {
		addr, err := freeAddr()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		s, err := r.p.start(bin, addr)
		if err != nil {
			return 0, err
		}
		if err := r.p.waitReady(ctx, s); err != nil {
			return 0, err
		}
		if _, err := r.p.warm(ctx, s); err != nil {
			return 0, err
		}
		r.servers, r.front = []*server{s}, s
		return time.Since(start).Seconds(), nil
	}

	// Two replicas, each with its own empty store. The first also
	// coordinates; it warms by computing and persisting its profiles.
	// The second starts after it and warms by peer fetch.
	a1, err := freeAddr()
	if err != nil {
		return 0, err
	}
	a2, err := freeAddr()
	for err == nil && a2 == a1 {
		a2, err = freeAddr()
	}
	if err != nil {
		return 0, err
	}
	peers := "http://" + a1 + ",http://" + a2
	start := time.Now()
	s1, err := r.p.start(bin, a1, "-store", filepath.Join(r.tmp, "store1"),
		"-peers", peers, "-advertise", "http://"+a1, "-coordinate")
	if err != nil {
		return 0, err
	}
	if err := r.p.waitReady(ctx, s1); err != nil {
		return 0, err
	}
	if _, err := r.p.warm(ctx, s1); err != nil {
		return 0, err
	}
	s2, err := r.p.start(bin, a2, "-store", filepath.Join(r.tmp, "store2"),
		"-peers", peers, "-advertise", "http://"+a2)
	if err != nil {
		return 0, err
	}
	if err := r.p.waitReady(ctx, s2); err != nil {
		return 0, err
	}
	w2, err := r.p.warm(ctx, s2)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	if w2.Recordings != 0 {
		r.fail("second replica computed %d recordings while warming, want 0 (peer fetch)", w2.Recordings)
	}
	r.servers, r.front = []*server{s1, s2}, s1
	return elapsed, nil
}

func (r *runner) allStats(ctx context.Context) ([]service.StatsResponse, error) {
	var out []service.StatsResponse
	for _, s := range r.servers {
		st, err := r.p.stats(ctx, s)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// counters reads /metrics and /v1/stats of every server.
func (r *runner) counters(ctx context.Context) ([]series, []service.StatsResponse, error) {
	var ms []series
	for _, s := range r.servers {
		m, err := r.p.scrape(ctx, s)
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, m)
	}
	st, err := r.allStats(ctx)
	return ms, st, err
}

// checkAll runs the run-level checks: one seeded sweep fetched in every
// encoding decodes to identical rows; sampled single-core CPIs match a
// direct profiling pass; fleet rows match an in-process evaluation; the
// compare set is whole and inside the paper's accuracy bounds; and
// validate's timed phase simulated each compare row exactly once.
func (r *runner) checkAll(ctx context.Context, c1 *conn, compareSet []wire.ScenarioResult, before, after []service.StatsResponse) {
	var first []wire.ScenarioResult
	for _, enc := range []string{encJSON, encNDJSON, encWire} {
		rec, rows := c1.do(ctx, "check", withEncoding(r.in.check, enc), time.Time{})
		if rec.Err != "" {
			return // counted as a failed request
		}
		if first == nil {
			first = rows
		} else if err := checkSameRows("check sweep JSON vs "+enc, first, rows); err != nil {
			r.fail("%v", err)
		}
	}
	if err := checkDirectCPIs(ctx, sampleCPIs(newGen(r.o.seed, 5), first, 4)); err != nil {
		r.fail("%v", err)
	}
	if r.w.fleet {
		if err := checkInProcess(ctx, r.in.check, first); err != nil {
			r.fail("fleet rows vs in-process Eval: %v", err)
		}
	}
	if len(compareSet) != compareSetRows {
		r.fail("compare set has %d rows, want %d", len(compareSet), compareSetRows)
	} else if stp, antt := compareGaps(compareSet); stp >= maxSTPGapPct || antt >= maxANTTGapPct {
		r.fail("compare set gaps STP %.3f%%, ANTT %.3f%% exceed the paper-level bounds %v%%, %v%%",
			stp, antt, maxSTPGapPct, maxANTTGapPct)
	}
	if r.w.compare {
		sims := int64(0)
		for i := range after {
			sims += after[i].Engine.SimulationsComputed - before[i].Engine.SimulationsComputed
		}
		rows := 0
		for _, rec := range c1.c.snapshot() {
			if rec.Kind == "compare" && rec.Phase == "timed" && rec.Err == "" {
				rows += rec.Rows
			}
		}
		if sims != int64(rows) {
			r.fail("timed phase computed %d simulations for %d compare rows", sims, rows)
		}
	}
}

// checkInProcess evaluates req with an in-process System at the
// benchmark's scale and requires the served rows to match it.
func checkInProcess(ctx context.Context, req *request, rows []wire.ScenarioResult) error {
	var er wire.EvalRequest
	if err := json.Unmarshal(req.Body, &er); err != nil {
		return err
	}
	mreq, err := service.BuildRequest(er, nil)
	if err != nil {
		return err
	}
	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(traceLength, intervalLength))
	res, err := sys.Eval(ctx, mreq)
	if err != nil {
		return err
	}
	if len(res.Scenarios) != len(rows) {
		return fmt.Errorf("%d rows, in-process %d", len(rows), len(res.Scenarios))
	}
	for i := range rows {
		sc, p := &res.Scenarios[i], rows[i].Prediction
		if sc.Err != nil {
			return fmt.Errorf("in-process row %d: %w", i, sc.Err)
		}
		q := sc.Prediction
		if rows[i].Config != sc.Config.Name || !slices.Equal(rows[i].Mix, sc.Mix) ||
			!slices.Equal(p.SingleCPI, q.SingleCPI) || !slices.Equal(p.MultiCPI, q.MultiCPI) ||
			!slices.Equal(p.Slowdown, q.Slowdown) || p.STP != q.STP || p.ANTT != q.ANTT ||
			p.Iterations != q.Iterations {
			return fmt.Errorf("row %d (%v, %s) differs from the in-process evaluation", i, sc.Mix, sc.Config.Name)
		}
	}
	return nil
}

// selectRecs returns the error-free records of a kind, encoding ("" for
// any) and phase.
func selectRecs(recs []record, kind, enc, ph string) []record {
	var out []record
	for _, rec := range recs {
		if rec.Kind == kind && (enc == "" || rec.Encoding == enc) && rec.Phase == ph && rec.Err == "" {
			out = append(out, rec)
		}
	}
	return out
}

// percentile is the interpolated p-th percentile (0..100) of xs, 0
// when there are no samples.
func percentile(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, p) // fails only on no samples
	return v
}

func collect(recs []record, f func(*record) float64) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = f(&recs[i])
	}
	return out
}

// endToEnd fills the end-to-end metrics from the run's records.
func (r *runner) endToEnd(m map[string]metric, recs []record, setups []float64, rss float64, compareSet []wire.ScenarioResult) {
	// A rate is the rows (or grid scenarios) of every sweep of its kind
	// over their summed send-to-last-byte times.
	sweepPhase := phase(!r.w.compare)
	rate := func(kind, enc string, perRec func(*record) float64) float64 {
		work, secs := 0.0, 0.0
		for _, rec := range selectRecs(recs, kind, enc, sweepPhase) {
			work += perRec(&rec)
			secs += rec.elapsed()
		}
		return work / secs
	}
	rows := func(rec *record) float64 { return float64(rec.Rows) }
	grid := func(*record) float64 { return float64(sweepMixes * len(configNames())) }
	// Predicts are timed from when they were sent. The open loop shares
	// one connection, so a predict that goes out late waits for the one
	// before it on that connection, a wait that users on connections of
	// their own never see; client.send_lag_p99_ms and
	// client.predict_due_p99_ms report it.
	predicts := collect(selectRecs(recs, "predict", "", "timed"),
		func(rec *record) float64 { return 1000 * rec.elapsed() })
	compares := selectRecs(recs, "compare", "", phase(r.w.compare))
	compareRows := 0
	for _, rec := range compares {
		compareRows += rec.Rows
	}
	compareRate := 0.0
	if len(compares) > 0 {
		compareRate = float64(compareRows) / (compares[len(compares)-1].LastByte - compares[0].Sent)
	}
	stpGap, anttGap := 0.0, 0.0
	if len(compareSet) > 0 {
		stpGap, anttGap = compareGaps(compareSet)
	}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	set("setup_s", "s", percentile(setups, 50))
	set("sweep_json_rows_per_s", "rows/s", rate("sweep", encJSON, rows))
	set("sweep_ndjson_rows_per_s", "rows/s", rate("sweep", encNDJSON, rows))
	set("sweep_wire_rows_per_s", "rows/s", rate("sweep", encWire, rows))
	set("stress_scenarios_per_s", "scenarios/s", rate("stress", "", grid))
	set("predict_p50_ms", "ms", percentile(predicts, 50))
	set("predict_p99_ms", "ms", percentile(predicts, 99))
	set("compare_rows_per_s", "rows/s", compareRate)
	set("stp_gap_pct", "%", stpGap)
	set("antt_gap_pct", "%", anttGap)
	set("peak_rss_mb", "MB", rss)
}

// layerCounters fills the per-layer metrics the servers' counters and
// the client's records give.
func (r *runner) layerCounters(m map[string]metric, recs []record, setupStats []service.StatsResponse,
	before, after []series, beforeStats, afterStats []service.StatsResponse) {
	delta := func(key string) float64 {
		v := 0.0
		for i := range after {
			v += after[i].get(key) - before[i].get(key)
		}
		return v
	}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	set("engine.jobs", "count", delta("mppm_engine_jobs_total"))
	set("engine.job_run_s", "s", delta("mppm_engine_job_run_seconds_sum"))
	set("engine.job_queue_s", "s", delta("mppm_engine_job_queue_seconds_sum"))
	var recsC, profsC, sims, peer, loaded, hits, misses float64
	for i, st := range setupStats {
		recsC += float64(st.Engine.RecordingsComputed)
		profsC += float64(st.Engine.ProfilesComputed)
		sims += float64(afterStats[i].Engine.SimulationsComputed - beforeStats[i].Engine.SimulationsComputed)
		if s := st.Store; s != nil {
			peer += float64(s.PeerFetchHits)
			loaded += float64(s.BytesLoaded + s.PeerBytesFetched)
			hits += float64(s.ProfileHits + s.RecordingHits + s.PeerFetchHits)
			misses += float64(s.ProfileMisses + s.RecordingMisses + s.PeerFetchMisses)
		}
	}
	set("engine.recordings_computed", "count", recsC)
	set("engine.profiles_computed", "count", profsC)
	set("engine.simulations_computed", "count", sims)
	set("service.eval_server_s", "s", delta(`mppm_http_request_duration_seconds_sum{route="/v1/eval"}`))

	sweepPhase := phase(!r.w.compare)
	for _, e := range []struct{ enc, ttfb, bpr string }{
		{encJSON, "service.ttfb_json_ms", "service.json_bytes_per_row"},
		{encNDJSON, "service.ttfb_ndjson_ms", "service.ndjson_bytes_per_row"},
		{encWire, "wire.ttfb_ms", "wire.bytes_per_row"},
	} {
		sel := selectRecs(recs, "sweep", e.enc, sweepPhase)
		set(e.ttfb, "ms", 1000*percentile(collect(sel, (*record).ttfb), 50))
		var bytes, rows float64
		for _, rec := range sel {
			bytes += float64(rec.Bytes)
			rows += float64(rec.Rows)
		}
		set(e.bpr, "B", bytes/max(rows, 1))
	}
	set("wire.rows", "count", delta("mppm_wire_rows_total"))
	set("wire.bytes_out", "B", delta("mppm_wire_bytes_out_total"))
	set("fleet.shards_dispatched", "count", delta("mppm_fleet_shards_dispatched_total"))
	set("fleet.shard_retries", "count", delta("mppm_fleet_shard_retries_total"))
	set("fleet.merge_stall_s", "s", delta("mppm_fleet_merge_stall_seconds_sum"))
	set("store.peer_fetches", "count", peer)
	set("store.bytes_loaded", "B", loaded)
	set("store.hit_ratio", "ratio", hits/max(hits+misses, 1))
	set("mppmd.gc_cycles", "count", delta("go_gc_cycles_total"))
	predicts := selectRecs(recs, "predict", "", "timed")
	set("client.send_lag_p99_ms", "ms", percentile(collect(predicts,
		func(rec *record) float64 { return 1000 * (rec.Sent - rec.Due) }), 99))
	set("client.predict_due_p99_ms", "ms", percentile(collect(predicts,
		func(rec *record) float64 { return 1000 * rec.latency() }), 99))
}

// writeRecords writes one JSON line per request to
// .bench_build/records/<workload>-seed<seed>-trace<trace>.jsonl.
func writeRecords(build string, o options, recs []record) error {
	dir := filepath.Join(build, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for i := range recs {
		line, err := json.Marshal(&recs[i])
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.jsonl", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
}
