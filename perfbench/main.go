// Command perfbench is dpfsm's end-to-end benchmark. Each run starts a
// fresh prebuilt fsmserve with a generated 200-rule set, drives one
// closed-loop workload against it from this single process, checks
// every answer against the scalar oracle, and prints one JSON line of
// metrics. With -trace 1 it reports per-layer metrics instead, from the
// same server run plus in-process replays of the same requests through
// each layer's entry point. See README.md for the workloads and the
// layer-to-metric table.
//
//	perfbench -fsmserve BIN -workload run-large -seed 1 -seconds 35 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupBefore and setupAfter are how many times a run starts the
// server to time set-up before the measured window (the last of these
// serves the load) and after it. The median of all is reported; spawns
// spread over the whole run even out the host's drift within it.
const setupBefore, setupAfter = 2, 2

func main() {
	var (
		bin     = flag.String("fsmserve", "", "prebuilt fsmserve binary")
		work    = flag.String("workload", "", "run-large or batch-ruleset")
		seed    = flag.Int64("seed", 1, "workload seed: rule set and inputs")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		outDir  = flag.String("out", ".bench_build/runs", "directory for the rule file, server log, spans and results")
	)
	flag.Parse()
	res, err := run(*bin, *work, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *outDir)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run makes one benchmark pass and returns its result line.
func run(bin, work string, seed int64, window time.Duration, traced bool, outDir string) (*result, error) {
	if bin == "" {
		return nil, errors.New("-fsmserve is required")
	}
	w, ok := workloads[work]
	if !ok {
		return nil, fmt.Errorf("unknown -workload %q", work)
	}
	// The load generator shares the cores with the server. One P is
	// enough for its one client, and a second would spin for work on the
	// cores the server is measured on.
	runtime.GOMAXPROCS(1)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("%s-seed%d", work, seed)
	if traced {
		tag += "-traced"
	}
	rec := newRecorder()

	sp := rec.start("prep.rules", 0)
	rs, err := genRules(seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	sh := rs.shape()
	sp = rec.start("prep.inputs", 0)
	in, err := w(seed, rs)
	sp.end()
	if err != nil {
		return nil, err
	}
	rulesPath := filepath.Join(outDir, tag+".rules")
	if err := os.WriteFile(rulesPath, []byte(rs.patternsFile()), 0o644); err != nil {
		return nil, err
	}
	logPath := filepath.Join(outDir, tag+".fsmserve.log")
	_ = os.Remove(logPath)

	before, after := setupBefore, setupAfter
	if traced {
		before, after = 1, 0
	}
	var setups []float64
	spawn := func() (*server, error) {
		s, d, err := startServer(bin, rulesPath, logPath)
		if err == nil {
			setups = append(setups, d.Seconds())
		}
		return s, err
	}
	var srv *server
	for i := 0; i < before; i++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = spawn(); err != nil {
			return nil, err
		}
	}
	defer func() { srv.stop() }()

	m, err := measure(in, srv, window, traced, rec)
	if err != nil {
		return nil, err
	}
	srv.stop()
	for i := 0; i < after; i++ {
		s, err := spawn()
		if err != nil {
			return nil, err
		}
		s.stop()
	}
	res := result{Correct: m.mismatches == 0, Attempted: m.attempted, Failed: m.failed}
	if traced {
		res.Metrics, err = layerMetrics(in, sh, m, rec)
		if err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(m, median(setups))
	}
	accept := in.acceptShare()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.2fs, %d failed, %d mismatched; accepting share %.3f; setup %v; shape %+v\n",
		tag, m.attempted, m.elapsed.Seconds(), m.failed, m.mismatches, accept, setups, sh)
	if m.laneSwitches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FLAG: %d adaptive lane switches in the measured window\n", tag, m.laneSwitches)
	}
	if m.attempted < minOpsForP99 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FLAG: %d ops leave fewer than 10 samples beyond p99\n", tag, m.attempted)
	}

	report := struct {
		result
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Shape    shape  `json:"rule_set"`
		// AcceptShare is the share of (rule, input) pairs the oracle says
		// accept.
		AcceptShare float64 `json:"accept_share"`
	}{res, work, seed, sh, accept}
	// The access log has one line per request; keep it only for a run
	// that fails.
	_ = os.Remove(logPath)
	if err := writeJSON(filepath.Join(outDir, tag+".result.json"), report); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(outDir, tag+".spans.json"), rec.spans); err != nil {
		return nil, err
	}
	return &res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// minOpsForP99 leaves ten samples beyond the 99th percentile.
const minOpsForP99 = 1000

// endToEnd derives the user-visible metrics of a measured window.
func endToEnd(m *measured, setup float64) map[string]metric {
	mb := float64(m.scanned) / 1e6
	secs := m.elapsed.Seconds()
	return map[string]metric{
		"setup_s":              {setup, "s"},
		"throughput_rps":       {float64(m.attempted) / secs, "req/s"},
		"throughput_mb_s":      {mb / secs, "MB/s"},
		"latency_p50_ms":       {ms(quantile(m.latency, 0.5)), "ms"},
		"latency_p99_ms":       {ms(quantile(m.latency, 0.99)), "ms"},
		"server_cpu_ms_per_mb": {float64(m.serverCPU.Microseconds()) / 1e3 / mb, "ms/MB"},
		"server_peak_rss_mb":   {float64(m.peakRSS) / 1e6, "MB"},
		"ok_ratio":             {float64(m.attempted-m.failed) / float64(m.attempted), "ratio"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
