package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"dpfsm/internal/adaptive"
	"dpfsm/internal/serverapi"
)

// Lane indices for per-request bookkeeping.
const (
	laneSingle = iota
	laneMulticore
	laneSpeculative
	laneOther
	numLanes
)

var laneNames = [numLanes]string{"single", "multicore", "speculative", "other"}

func laneIndex(s string) int {
	for i, n := range laneNames[:laneOther] {
		if s == n {
			return i
		}
	}
	return laneOther
}

// outcome is one completed operation (a /v1/run request or a whole
// /v1/batch request) as the client saw it.
type outcome struct {
	latency   time.Duration
	serverNs  int64 // duration_ns the server reported (batch: the summary's)
	kernelNs  int64 // summed per-job kernel time the server reported
	scanned   int64 // input bytes the operation scanned
	respBytes int
	machine   int // rule index; -1 for a batch
	lanes     [numLanes]int32
	failed    bool // refused, errored, or oracle mismatch
	mismatch  bool // answered, but not what the oracle says
	jobNs     []int64
}

// client drives one fsmserve over keep-alive connections, reusing its
// response buffer across requests.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	run  serverapi.RunResult
}

// newTransport keeps the one connection a closed loop of one client needs.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

func (c *client) post(u string, body []byte, ctype string) (int, error) {
	resp, err := c.hc.Post(u, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// get fetches path and discards the body.
func (c *client) get(path string) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return err
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runURLs pre-builds the /v1/run URL of every rule.
func runURLs(base string, rules []*rule) map[*rule]string {
	m := make(map[*rule]string, len(rules))
	for _, r := range rules {
		m[r] = base + serverapi.Version + "/run?machine=" + url.QueryEscape(r.name)
	}
	return m
}

// doRun sends one /v1/run request and checks it against the oracle.
func (c *client) doRun(u string, o *op, idx int) outcome {
	t0 := time.Now()
	status, err := c.post(u, o.body, "application/octet-stream")
	out := outcome{latency: time.Since(t0), scanned: int64(len(o.body)), respBytes: c.buf.Len(), machine: idx}
	if err != nil || status != http.StatusOK {
		out.failed = true
		return out
	}
	c.run = serverapi.RunResult{}
	if err := json.Unmarshal(c.buf.Bytes(), &c.run); err != nil {
		out.failed = true
		return out
	}
	out.serverNs = c.run.DurationNs
	out.kernelNs = c.run.DurationNs
	out.lanes[laneIndex(c.run.Lane)]++
	if c.run.Final != o.final || c.run.Accepts != o.accepts || c.run.Bytes != len(o.body) {
		out.failed, out.mismatch = true, true
	}
	return out
}

// doBatch sends one /v1/batch request and checks every line against
// the oracle.
func (c *client) doBatch(u string, b *batchOp, keepJobNs bool) outcome {
	t0 := time.Now()
	status, err := c.post(u, b.body, "application/x-ndjson")
	out := outcome{latency: time.Since(t0), scanned: int64(len(b.payload) * len(b.want)), respBytes: c.buf.Len(), machine: -1}
	if err != nil || status != http.StatusOK {
		out.failed = true
		return out
	}
	seen := make([]bool, len(b.want))
	sc := bufio.NewScanner(&c.buf)
	var trailer serverapi.BatchTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"summary"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				out.failed = true
			}
			continue
		}
		var br serverapi.BatchResult
		if err := json.Unmarshal(line, &br); err != nil || br.Index < 0 || br.Index >= len(b.want) || seen[br.Index] {
			out.failed = true
			continue
		}
		seen[br.Index] = true
		if br.Error != "" {
			out.failed = true
			continue
		}
		w := b.want[br.Index]
		if br.Final != w.final || br.Accepts != w.accepts {
			out.failed, out.mismatch = true, true
		}
		out.kernelNs += br.DurationNs
		out.lanes[laneIndex(br.Lane)]++
		if keepJobNs {
			out.jobNs = append(out.jobNs, br.DurationNs)
		}
	}
	for _, ok := range seen {
		if !ok {
			out.failed = true
		}
	}
	if trailer.Summary.OK != len(b.want) {
		out.failed = true
	}
	out.serverNs = trailer.Summary.DurationNs
	return out
}

// closedLoop issues operations 0, 1, 2, … of the cycle, each only after
// the previous one completed, until d has elapsed and at least minOps
// operations have completed (so the p99 has ten samples beyond it), or
// 3d has elapsed.
func closedLoop(d time.Duration, minOps int, do func(k int) outcome) ([]outcome, time.Duration) {
	t0 := time.Now()
	deadline, limit := t0.Add(d), t0.Add(3*d)
	out := make([]outcome, 0, 1<<12)
	for k := 0; ; k++ {
		now := time.Now()
		if !now.Before(deadline) && (len(out) >= minOps || !now.Before(limit)) {
			break
		}
		out = append(out, do(k))
	}
	return out, time.Since(t0)
}

// settleLarge warms run-large up until the adaptive selection of every
// machine has stopped moving: for each machine, the selection read from
// /v1/machines/{name}/profile at the last two EvalEvery boundaries is
// the same, and every response in those two windows ran on that lane
// (so no speculative probe or switch happened in them). It returns the
// number of warm-up requests sent and whether every machine settled.
func settleLarge(c *client, urls map[*rule]string, ops []op, picked []*rule, limit time.Duration) (int, bool, error) {
	type state struct {
		jobs    int
		clean   int    // consecutive windows whose responses all matched the selection
		lastSel string // selection at the previous window boundary
		window  bool   // current window has a response off the selection lane
	}
	st := make(map[*rule]*state, len(picked))
	for _, r := range picked {
		st[r] = &state{}
	}
	settled := func() bool {
		for _, s := range st {
			if s.clean < 2 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(limit)
	for k := 0; ; k++ {
		o := &ops[k%len(ops)]
		out := c.doRun(urls[o.rule], o, 0)
		if out.failed {
			return k + 1, false, fmt.Errorf("warm-up request to %s failed", o.rule.name)
		}
		s := st[o.rule]
		s.jobs++
		lane := c.run.Lane
		if strings.HasPrefix(c.run.SelectionReason, "probing") || (s.lastSel != "" && lane != s.lastSel) {
			s.window = true
		}
		if s.jobs%adaptive.EvalEvery != 0 {
			continue
		}
		// The selector re-evaluated on this job; read its decision.
		var mp serverapi.MachineProfile
		if err := c.getJSON(serverapi.Version+"/machines/"+o.rule.name+"/profile", &mp); err != nil {
			return k + 1, false, err
		}
		switch {
		case s.window || mp.Selection.Lane != s.lastSel:
			s.clean = 0
		default:
			s.clean++
		}
		s.lastSel, s.window = mp.Selection.Lane, false
		if settled() {
			return k + 1, true, nil
		}
		if time.Now().After(deadline) {
			return k + 1, false, nil
		}
	}
}

// selections reads the current lane of each picked machine.
func selections(c *client, picked []*rule) (map[string]string, error) {
	out := make(map[string]string, len(picked))
	for _, r := range picked {
		var mp serverapi.MachineProfile
		if err := c.getJSON(serverapi.Version+"/machines/"+r.name+"/profile", &mp); err != nil {
			return nil, err
		}
		out[r.name] = mp.Selection.Lane
	}
	return out, nil
}
