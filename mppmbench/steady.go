package main

// Steadiness mode: repeat every workload with fresh seeds, alternating
// the workloads, and print each end-to-end metric's median and
// quartiles next to the bound BENCHMARK.json fixes for it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json steadiness mode reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile with
// the exclusive method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	at := func(p float64) float64 {
		m := float64(len(s)+1) * p // 1-based position
		j := int(m)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func steady(ctx context.Context, o options) error {
	raw, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> runs
	failed := map[string][]string{}
	for i := 0; i < o.steady; i++ {
		for _, w := range bf.Workloads {
			if o.workload != "" && w.Name != o.workload {
				continue
			}
			seed := o.seed + uint64(i)
			cmd := exec.CommandContext(ctx, self, "-root", o.root, "-mppmd", o.mppmd,
				"--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: parse result: %w", w.Name, seed, err)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			failed[w.Name] = append(failed[w.Name], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", w.Name, seed)
		}
	}
	fmt.Printf("%-9s %-24s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range bf.Workloads {
		if values[w.Name] == nil {
			continue
		}
		for _, e := range bf.EndToEnd {
			q1, q2, q3 := quartiles(values[w.Name][e.Name])
			spread := (q3 - q1) / q2
			flag := ""
			if e.Name != "setup_s" && spread > e.Bound/3 {
				flag = "  above bound/3"
			}
			fmt.Printf("%-9s %-24s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", w.Name, e.Name, q1, q2, q3, spread, e.Bound, flag)
		}
		fmt.Printf("%-9s failed/attempted per run: %s\n", w.Name, strings.Join(failed[w.Name], " "))
	}
	return nil
}
