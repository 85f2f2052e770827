package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dpfsm/internal/core"
	"dpfsm/internal/engine"
	"dpfsm/internal/fsm"
	"dpfsm/internal/perfprofile"
	"dpfsm/internal/telemetry"
	"dpfsm/internal/trace"
)

// span is one timed call the benchmark made into a layer. Spans of the
// same replayed request share Req across rungs.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     int    `json:"req,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. It is
// used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

type openSpan struct {
	r *recorder
	i int
}

func (r *recorder) start(name string, parent int) openSpan {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, StartNs: time.Since(r.t0).Nanoseconds()})
	return openSpan{r, len(r.spans) - 1}
}

func (s openSpan) id() int { return s.r.spans[s.i].ID }

func (s openSpan) end() time.Duration {
	sp := &s.r.spans[s.i]
	sp.EndNs = time.Since(s.r.t0).Nanoseconds()
	return time.Duration(sp.EndNs - sp.StartNs)
}

// call times f as a child span of parent for replayed request req.
func (r *recorder) call(name string, parent, req int, f func()) time.Duration {
	s := r.start(name, parent)
	s.r.spans[s.i].Req = req
	f()
	return s.end()
}

// job is one (machine, input) pair of the workload, with its oracle
// answer, as the ladder replays it.
type job struct {
	r    *rule
	body []byte
	want expect
}

func (in *inputs) jobs() []job {
	var out []job
	for _, o := range in.ops {
		out = append(out, job{o.rule, o.body, expect{o.final, o.accepts}})
	}
	for _, b := range in.batches {
		for i, r := range in.rules {
			out = append(out, job{r, b.payload, b.want[i]})
		}
	}
	return out
}

// acceptShare is the share of the workload's jobs the oracle accepts.
func (in *inputs) acceptShare() float64 {
	jobs := in.jobs()
	n := 0
	for _, j := range jobs {
		if j.want.accepts {
			n++
		}
	}
	return float64(n) / float64(len(jobs))
}

func newEngine(rules []*rule, opts ...engine.Option) (*engine.Engine, error) {
	e := engine.New(append([]engine.Option{
		engine.WithProcs(0),
		engine.WithTelemetry(new(telemetry.Metrics)),
		engine.WithPerfProfiles(perfprofile.NewStore("")),
	}, opts...)...)
	for _, r := range rules {
		if _, err := e.RegisterPlan(r.name, r.plan, core.WithStrategy(core.Auto)); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// layerMetrics combines the server run's layer observations with
// in-process replays of the same requests through each layer's entry
// point, made after the server has stopped.
func layerMetrics(in *inputs, sh shape, m *measured, rec *recorder) (map[string]metric, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	jobs := in.jobs()
	ctx := context.Background()
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// HTTP surface, from the server run.
	var over, kern []time.Duration
	var kernelNs, respBytes int64
	var lanes [numLanes]int64
	for _, o := range m.outcomes {
		over = append(over, o.latency-time.Duration(o.serverNs))
		kernelNs += o.kernelNs
		respBytes += int64(o.respBytes)
		for l, n := range o.lanes {
			lanes[l] += int64(n)
		}
		if o.jobNs != nil {
			for _, ns := range o.jobNs {
				kern = append(kern, time.Duration(ns))
			}
		} else {
			kern = append(kern, time.Duration(o.serverNs))
		}
	}
	ops := float64(m.attempted)
	set("fsmserve.overhead_ms_p50", ms(quantile(over, 0.5)), "ms")
	set("fsmserve.response_bytes_per_op", float64(respBytes)/ops, "B")
	set("fsmserve.healthz_rtt_us_p50", ms(quantile(m.healthz, 0.5))*1e3, "us")
	set("core.server_kernel_ms_p50", ms(quantile(kern, 0.5)), "ms")
	set("core.kernel_share", float64(kernelNs)/float64(m.serverCPU.Nanoseconds()), "ratio")
	var laneJobs int64
	for _, n := range lanes {
		laneJobs += n
	}
	for l := laneSingle; l <= laneSpeculative; l++ {
		set("engine.lane_share."+laneNames[l], float64(lanes[l])/float64(laneJobs), "ratio")
	}
	set("adaptive.lane_switches", float64(m.laneSwitches), "count")
	set("adaptive.warmup_jobs", float64(m.warmupJobs), "count")
	delta := func(name string) float64 { return m.promAfter["dpfsm_"+name] - m.promBefore["dpfsm_"+name] }
	set("speculative.mispredict_ratio", ratio(delta("spec_mispredicts_total"), delta("spec_chunks_total")), "ratio")
	set("speculative.rerun_byte_ratio", ratio(delta("spec_rerun_bytes_total"), float64(m.scanned)), "ratio")
	set("engine.queue_high_water", m.promAfter["dpfsm_engine_queue_high_water"], "count")
	set("runtime.gc_cycles_per_kop", delta("runtime_gc_cycles_total")/(ops/1e3), "count")
	set("runtime.gc_pause_p99_ms", m.promAfter["dpfsm_runtime_gc_pause_p99_ns"]/1e6, "ms")
	set("host.steal_pct", m.stealPct, "%")
	set("client.cpu_ms_per_op", ms(m.clientCPU)/ops, "ms")

	// Compile layers, from preparing the rule set in this process.
	set("regex.compile_ms_total", float64(sh.CompileNs)/1e6, "ms")
	set("regex.dfa_states_p50", float64(sh.StatesP50), "count")
	set("regex.dfa_states_max", float64(sh.StatesMax), "count")
	set("core.compile_plan_ms_total", float64(sh.PlanNs)/1e6, "ms")
	set("core.table_bytes_total", float64(sh.TableBytes), "B")

	// Kernel rungs: one goroutine, the plan's strategy, Sequential, and
	// the multicore runner, on the same inputs.
	kernels := []struct {
		name string
		mk   func(r *rule) (*core.Runner, error)
	}{
		{"core.kernel_mb_s", func(r *rule) (*core.Runner, error) { return core.NewFromPlan(r.plan, core.WithProcs(1)) }},
		{"core.sequential_mb_s", func(r *rule) (*core.Runner, error) {
			return core.New(r.dfa, core.WithStrategy(core.Sequential), core.WithProcs(1))
		}},
		{"core.multicore_mb_s", func(r *rule) (*core.Runner, error) {
			return core.NewFromPlan(r.plan, core.WithProcs(runtime.NumCPU()))
		}},
	}
	for _, k := range kernels {
		runners := map[*rule]*core.Runner{}
		for _, j := range jobs {
			if runners[j.r] == nil {
				rn, err := k.mk(j.r)
				if err != nil {
					return nil, fmt.Errorf("%s runner for %s: %w", k.name, j.r.name, err)
				}
				runners[j.r] = rn
			}
		}
		rung := rec.start("ladder."+k.name, 0)
		var busy time.Duration
		var bytes int64
		var bad int
		for i, j := range jobs {
			var q fsm.State
			busy += rec.call("Runner.Final", rung.id(), i+1, func() { q = runners[j.r].Final(j.body, j.r.dfa.Start()) })
			bytes += int64(len(j.body))
			if q != j.want.final {
				bad++
			}
		}
		rung.end()
		if bad > 0 {
			return nil, fmt.Errorf("%s: %d results differ from the oracle", k.name, bad)
		}
		set(k.name, float64(bytes)/1e6/busy.Seconds(), "MB/s")
	}

	// Engine rung: Engine.Run, and its self time around the kernel call
	// it reports (Result.Duration is the Runner.Final it made).
	bare, err := newEngine(in.rules)
	if err != nil {
		return nil, err
	}
	defer bare.Close()
	traced, err := newEngine(in.rules, engine.WithTraceSink(trace.NewRecorder(256)))
	if err != nil {
		return nil, err
	}
	defer traced.Close()
	for _, e := range []*engine.Engine{bare, traced} { // first-use set-up
		for _, j := range jobs[:min(len(jobs), len(in.rules))] {
			e.Run(ctx, engine.Job{Machine: j.r.name, Input: j.body})
		}
	}
	var runs, selfs []time.Duration
	var bareT, tracedT time.Duration
	rung := rec.start("ladder.engine.Run", 0)
	for i, j := range jobs {
		job := engine.Job{Machine: j.r.name, Input: j.body}
		var res engine.Result
		bareRun := func() time.Duration {
			return rec.call("Engine.Run", rung.id(), i+1, func() { res = bare.Run(ctx, job) })
		}
		tracedRun := func() time.Duration {
			return rec.call("Engine.Run+trace", rung.id(), i+1, func() { traced.Run(ctx, job) })
		}
		// Alternate which engine goes first, so neither always finds the
		// machine's tables warm in cache.
		var d time.Duration
		if i%2 == 0 {
			d = bareRun()
			tracedT += tracedRun()
		} else {
			tracedT += tracedRun()
			d = bareRun()
		}
		if res.Err != nil || res.Final != j.want.final {
			return nil, fmt.Errorf("Engine.Run %s: result differs from the oracle (err %v)", j.r.name, res.Err)
		}
		runs = append(runs, d)
		selfs = append(selfs, d-res.Duration)
		bareT += d
	}
	rung.end()
	set("engine.run_us_p50", ms(quantile(runs, 0.5))*1e3, "us")
	set("engine.overhead_us_p50", ms(quantile(selfs, 0.5))*1e3, "us")
	set("trace.overhead_pct", 100*(tracedT.Seconds()/bareT.Seconds()-1), "%")

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, j := range jobs {
		bare.Run(ctx, engine.Job{Machine: j.r.name, Input: j.body})
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(jobs))
	set("engine.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	set("engine.bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "B")

	// Queue rung: in-process Submit in groups the size of the rule set,
	// one submitting goroutine and one receiving, as /v1/batch does.
	waits, err := queueWaits(ctx, bare, jobs, len(in.rules), rec)
	if err != nil {
		return nil, err
	}
	set("engine.queue_wait_ms_p50", ms(quantile(waits, 0.5)), "ms")
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// queueWaits submits jobs group by group and returns, per job, the time
// from Submit to its result minus the job's own execution time.
func queueWaits(ctx context.Context, e *engine.Engine, jobs []job, group int, rec *recorder) ([]time.Duration, error) {
	var waits []time.Duration
	rung := rec.start("ladder.engine.Submit", 0)
	defer rung.end()
	for lo := 0; lo < len(jobs); lo += group {
		part := jobs[lo:min(lo+group, len(jobs))]
		sent := make([]time.Time, len(part))
		out := make(chan engine.Result, len(part))
		errc := make(chan error, 1)
		g := rec.start("Submit.group", rung.id())
		go func() {
			for i, j := range part {
				sent[i] = time.Now()
				if err := e.Submit(ctx, engine.Job{Machine: j.r.name, Input: j.body}, i, out); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for got := 0; got < len(part); {
			select {
			case r := <-out:
				got++
				if r.Err != nil || r.Final != part[r.Index].want.final {
					return nil, fmt.Errorf("Submit %s: result differs from the oracle (err %v)", r.Machine, r.Err)
				}
				waits = append(waits, time.Since(sent[r.Index])-r.Duration)
			case err := <-errc:
				if err != nil {
					return nil, fmt.Errorf("Submit: %w", err)
				}
				errc = nil // every job is queued
			}
		}
		g.end()
	}
	return waits, nil
}
