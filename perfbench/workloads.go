package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"dpfsm/internal/serverapi"
)

// mix is one workload: a traffic mix, built from the seed and the rule
// set. Both are closed loops of one client, a scanner waiting for its
// verdict before sending the next request.
type mix func(seed int64, rs *ruleSet) (*inputs, error)

// inputs is a workload's pre-generated requests with oracle answers.
type inputs struct {
	ops     []op      // run-large
	batches []batchOp // batch-ruleset
	rules   []*rule   // the machines the workload addresses
	// large marks run-large, whose warm-up waits for the adaptive
	// selection to settle and whose lane switches are counted.
	large bool
}

var workloads = map[string]mix{
	// 2 MiB bodies take a parallel lane chosen by internal/adaptive:
	// kernel, chunk reduce and body read dominate. Eight machines, so one
	// machine's lane choice moves the latency quantiles by an eighth.
	"run-large": func(seed int64, rs *ruleSet) (*inputs, error) {
		picked := rs.byStates(largeRules)
		return &inputs{ops: largeOpsFor(seed, picked), rules: picked, large: true}, nil
	},
	// One payload against every rule per request: the only path through
	// engine.Submit and the worker pool, plus per-line NDJSON.
	"batch-ruleset": func(seed int64, rs *ruleSet) (*inputs, error) {
		b, err := batchOpsFor(seed, rs)
		return &inputs{batches: b, rules: rs.rules}, err
	},
}

// measured is what one server run observed.
type measured struct {
	attempted, failed, mismatches int
	elapsed                       time.Duration
	scanned                       int64
	latency                       []time.Duration
	outcomes                      []outcome
	serverCPU                     time.Duration
	peakRSS                       int64
	warmupJobs                    int
	settled                       bool
	laneSwitches                  int
	stealPct                      float64
	clientCPU                     time.Duration
	promBefore, promAfter         map[string]float64
	healthz                       []time.Duration
}

// windowHeap is how much this process may allocate in a measured window
// before it collects; a 35 s window allocates up to about 250 MB.
const windowHeap = 512 << 20

// largeSettleLimit bounds the run-large warm-up; a run that has not
// settled by then is measured anyway and flagged.
const largeSettleLimit = 90 * time.Second

func measure(in *inputs, srv *server, window time.Duration, traced bool, rec *recorder) (*measured, error) {
	tr := newTransport()
	defer tr.CloseIdleConnections()
	ctl := &client{hc: &http.Client{Transport: tr}, base: srv.base}
	runURL := runURLs(srv.base, in.rules)
	batchURL := srv.base + serverapi.Version + "/batch"
	idx := make(map[*rule]int, len(in.rules))
	for i, r := range in.rules {
		idx[r] = i
	}

	var do func(k int) outcome
	if in.batches != nil {
		do = func(k int) outcome { return ctl.doBatch(batchURL, &in.batches[k%len(in.batches)], traced) }
	} else {
		do = func(k int) outcome {
			o := &in.ops[k%len(in.ops)]
			return ctl.doRun(runURL[o.rule], o, idx[o.rule])
		}
	}

	m := &measured{settled: true}
	sp := rec.start("warmup", 0)
	if in.large {
		n, ok, err := settleLarge(ctl, runURL, in.ops, in.rules, largeSettleLimit)
		if err != nil {
			return nil, err
		}
		m.warmupJobs, m.settled = n, ok
	} else {
		m.warmupJobs = 2 * len(in.batches)
		for k := 0; k < m.warmupJobs; k++ {
			if out := do(k); out.failed {
				return nil, fmt.Errorf("warm-up operation %d failed", k)
			}
		}
	}
	sp.end()
	if !m.settled {
		fmt.Fprintln(os.Stderr, "perfbench: FLAG: adaptive selection did not settle during warm-up")
	}

	var err error
	if in.large {
		sel, err := selections(ctl, in.rules)
		if err != nil {
			return nil, err
		}
		for _, r := range in.rules {
			fmt.Fprintf(os.Stderr, "perfbench: %s (%d states, %s): %s after %d warm-up jobs\n",
				r.name, r.dfa.NumStates(), r.plan.Strategy(), sel[r.name], m.warmupJobs)
		}
	}
	// This process holds the rule set and the prepared inputs, a few
	// hundred MB, and one of its own collections takes a good part of a
	// second on its one P. Collect now and hold collection off for the
	// window, up to windowHeap more bytes, so none lands in the latencies.
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	gcPercent := debug.SetGCPercent(-1)
	memLimit := debug.SetMemoryLimit(int64(heap.HeapAlloc) + windowHeap)
	defer func() {
		debug.SetGCPercent(gcPercent)
		debug.SetMemoryLimit(memLimit)
	}()
	// Start every window just after a full collection in the server too,
	// so whether the collection of the compile-time garbage falls inside
	// the window, and how many collections the window sees, do not vary
	// from run to run.
	if err := ctl.get("/debug/pprof/heap?gc=1"); err != nil {
		return nil, err
	}
	if m.promBefore, err = scrape(ctl); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	host0, cl0 := readHostCPU(), clientCPU()

	sp = rec.start("measure", 0)
	m.outcomes, m.elapsed = closedLoop(window, minOpsForP99, do)
	sp.end()

	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	m.serverCPU = cpu1 - cpu0
	m.stealPct = stealPct(host0, readHostCPU())
	m.clientCPU = clientCPU() - cl0
	if m.peakRSS, err = srv.peakRSS(); err != nil {
		return nil, err
	}
	if m.promAfter, err = scrape(ctl); err != nil {
		return nil, err
	}

	// A lane switch is a change of lane between one machine's consecutive
	// responses, so a lasting switch counts once and a probe twice.
	last := make(map[int]int) // machine -> lane of its previous response
	for _, o := range m.outcomes {
		m.attempted++
		m.scanned += o.scanned
		m.latency = append(m.latency, o.latency)
		if o.failed {
			m.failed++
		}
		if o.mismatch {
			m.mismatches++
		}
		if o.machine >= 0 && in.large {
			lane := 0
			for l, n := range o.lanes {
				if n > 0 {
					lane = l
				}
			}
			if prev, ok := last[o.machine]; ok && prev != lane {
				m.laneSwitches++
			}
			last[o.machine] = lane
		}
	}
	if traced {
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			resp, err := ctl.hc.Get(srv.base + "/healthz")
			if err != nil {
				return nil, err
			}
			ctl.buf.Reset()
			_, _ = ctl.buf.ReadFrom(resp.Body)
			resp.Body.Close()
			m.healthz = append(m.healthz, time.Since(t0))
		}
	}
	return m, nil
}

// scrape reads the server's dpfsm_* Prometheus series.
func scrape(c *client) (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + serverapi.Version + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "dpfsm_") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || strings.ContainsRune(f[0], '{') {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
