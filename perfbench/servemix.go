package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"gippr/internal/cache"
	"gippr/internal/experiments"
	"gippr/internal/ipv"
	"gippr/internal/parallel"
	"gippr/internal/resultstore"
	"gippr/internal/serve"
	"gippr/internal/trace"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

// explainPolicies are the registry policies explain jobs pair up.
var explainPolicies = []string{"lru", "plru", "drrip", "pdp", "gippr", "4-dgippr", "ship", "mslru", "giplr", "dip", "srrip", "brrip"}

// daemon is one in-process gippr-serve with a result store in a temporary
// directory under the run's output directory.
type daemon struct {
	srv     *serve.Server
	hs      *httptest.Server
	dir     string
	instr   map[string]uint64 // workload -> instructions over its phase streams
	records map[string]uint64 // workload -> records over its phase streams
	// gridPacked reports whether a grid job's single-vector GIPPR replay
	// takes the batched kernel path.
	gridPacked bool
}

func startDaemon(cfg config, wls []workload.Workload) (*daemon, error) {
	dir, err := os.MkdirTemp(cfg.OutDir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(serve.Config{
		Scale:      scaleOf(cfg),
		Workers:    cfg.Workers,
		QueueDepth: 4 * cfg.Clients,
		LabWorkers: 1,
		Store:      st,
	})
	d := &daemon{
		srv: srv, hs: httptest.NewServer(srv.Handler()), dir: dir,
		instr: map[string]uint64{}, records: map[string]uint64{},
	}
	// A long-lived daemon has the streams of the workloads it serves warm.
	lab := srv.Lab()
	parallel.For(cfg.Workers, len(wls), func(i int) { lab.Streams(wls[i]) })
	for _, w := range wls {
		for _, s := range lab.Streams(w) {
			d.instr[w.Name] += trace.Instructions(s.Records)
			d.records[w.Name] += uint64(len(s.Records))
		}
	}
	// It also has the instrumented captures that explain jobs share:
	// diffing disjoint policy pairs captures every explain policy on every
	// workload, so each explain job in the script costs the same however
	// far the run gets. The script never submits these warming pairs.
	var warm []func()
	for _, w := range wls {
		for _, pair := range warmingPairs() {
			a, err := experiments.SpecFromRegistry(pair[0])
			if err != nil {
				d.stop()
				return nil, err
			}
			b, err := experiments.SpecFromRegistry(pair[1])
			if err != nil {
				d.stop()
				return nil, err
			}
			w := w
			warm = append(warm, func() { lab.Diff(a, b, w) }) //nolint:errcheck // the script's own explain jobs check Diff
		}
	}
	parallel.For(cfg.Workers, len(warm), func(i int) { warm[i]() })
	d.gridPacked = packable(lab.Cfg, experiments.SpecForIPV("GIPPR*", ipv.LRU(lab.Cfg.Ways)))
	return d, nil
}

// warmingPairs pairs the explain policies off two by two.
func warmingPairs() [][2]string {
	var pairs [][2]string
	for i := 0; i+1 < len(explainPolicies); i += 2 {
		pairs = append(pairs, [2]string{explainPolicies[i], explainPolicies[i+1]})
	}
	return pairs
}

// stop closes the HTTP server, drains the daemon and removes its store.
func (d *daemon) stop() {
	d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.srv.Drain(ctx) //nolint:errcheck // Close below cancels whatever is left
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// request is one job submission of a script.
type request struct {
	kind  string // "grid", "sweep" or "explain"
	path  string
	body  []byte
	job   serve.JobRequest
	instr uint64 // simulated instructions a cold run replays
	// Accesses a cold run replays under a cache policy, and those among
	// them on the batched kernel. Sweeps walk streams in the one-pass
	// engine and count in neither.
	policyAcc, packedAcc uint64
}

func (d *daemon) request(job serve.JobRequest) request {
	r := request{job: job, path: "/v1/jobs", kind: "grid"}
	var instr, recs uint64
	for _, w := range job.Workloads {
		instr += d.instr[w]
		recs += d.records[w]
	}
	switch {
	case job.Sweep != nil:
		r.kind, r.instr = "sweep", instr
	case job.Explain != nil:
		// An explain job replays only the sides the lab has not captured
		// for an earlier explain job, so its replays are not its own and
		// count toward neither the instructions nor the access share.
		r.kind, r.path = "explain", "/v1/explain"
	default:
		// A grid job runs exactly its one single-vector GIPPR spec.
		r.instr, r.policyAcc = instr, recs
		if d.gridPacked {
			r.packedAcc = recs
		}
	}
	body, err := json.Marshal(job)
	if err != nil {
		panic(err) // a JobRequest always marshals
	}
	r.body = body
	return r
}

// script is one client's job sequence: cold and repeat submissions
// alternate, so half the jobs after the first are store hits. Cold jobs
// cycle through the kinds (grid, sweep, grid, explain) and through the
// workloads, shifted by one each round, and draw sweep lattices and explain
// pairs from fixed per-workload pools. That skeleton is the same for every
// seed, so the jobs' cost and the memo reuse among them do not depend on
// it; the seed picks each grid job's vector and which earlier job a repeat
// names. The hit share, the kind ratio and the one-workload jobs are
// assumptions, not measured usage; README.md gives the reason for each.
type script struct {
	rng  *xrand.RNG
	wls  []string
	ways int
	// Per-workload pools of sweep and explain requests no other client
	// draws from.
	sweeps, explains map[string][]serve.JobRequest
	issued           []request
	n                int
	// dry counts sweep and explain turns that found their pool empty and
	// ran a grid job instead, which changes the mix.
	dry int
}

// coldKinds is the cycle of cold job kinds.
var coldKinds = []string{"grid", "sweep", "grid", "explain"}

// newScripts builds the clients' scripts, dealing the sweep and explain
// pools out so no two clients submit the same request. Each client's pools
// hold several times the requests a run draws, so the mix stays the same
// when jobs get faster, and a fixed shuffle spreads the lattices' and
// pairs' costs evenly along the pools.
func newScripts(seed uint64, clients, ways int, wls []string) []*script {
	out := make([]*script, clients)
	for c := range out {
		out[c] = &script{
			rng: xrand.New(xrand.Mix(seed, uint64(c)+1)), wls: wls, ways: ways,
			sweeps: map[string][]serve.JobRequest{}, explains: map[string][]serve.JobRequest{},
		}
	}
	plru := experiments.DefaultLatticeSpec(cache.L3Config).PLRU
	warming := map[[2]string]bool{}
	for _, p := range warmingPairs() {
		warming[p] = true
	}
	pools := xrand.New(0x5eed)
	for _, w := range wls {
		var sweeps, explains []serve.JobRequest
		for maxWays := 9; maxWays <= 32; maxWays++ {
			for _, minSets := range []int{512, 1024, 2048} {
				for _, withPLRU := range []bool{false, true} {
					sw := &serve.SweepRequest{MinSets: minSets, MaxSets: 4096, MaxWays: maxWays}
					if withPLRU {
						sw.PLRU = plru
					}
					sweeps = append(sweeps, serve.JobRequest{Workloads: []string{w}, Sweep: sw})
				}
			}
		}
		// Ordered pairs: "a against b" and "b against a" are different
		// requests with different results.
		for _, a := range explainPolicies {
			for _, b := range explainPolicies {
				if a != b && !warming[[2]string{a, b}] && !warming[[2]string{b, a}] {
					explains = append(explains, serve.JobRequest{Workloads: []string{w},
						Explain: &serve.ExplainRequest{PolicyA: a, PolicyB: b}})
				}
			}
		}
		pools.Shuffle(len(sweeps), func(i, j int) { sweeps[i], sweeps[j] = sweeps[j], sweeps[i] })
		pools.Shuffle(len(explains), func(i, j int) { explains[i], explains[j] = explains[j], explains[i] })
		for i, job := range sweeps {
			c := out[i%clients]
			c.sweeps[w] = append(c.sweeps[w], job)
		}
		for i, job := range explains {
			c := out[i%clients]
			c.explains[w] = append(c.explains[w], job)
		}
	}
	return out
}

// next returns the script's next submission and whether it repeats an
// earlier one.
func (s *script) next(d *daemon) (request, bool) {
	s.n++
	if s.n%2 == 0 {
		return s.issued[s.rng.Intn(len(s.issued))], true
	}
	// Shifting the workload order by one every round gives each workload
	// every kind in turn.
	k := len(s.issued)
	w := s.wls[(k+k/len(s.wls))%len(s.wls)]
	var job serve.JobRequest
	switch kind := coldKinds[k%len(coldKinds)]; {
	case kind == "sweep" && len(s.sweeps[w]) > 0:
		job, s.sweeps[w] = s.sweeps[w][0], s.sweeps[w][1:]
	case kind == "explain" && len(s.explains[w]) > 0:
		job, s.explains[w] = s.explains[w][0], s.explains[w][1:]
	default:
		if kind != "grid" {
			s.dry++
		}
		job = serve.JobRequest{Workloads: []string{w}, IPV: randomVector(s.rng, s.ways).String(), Exact: true}
	}
	req := d.request(job)
	s.issued = append(s.issued, req)
	return req, false
}

// served is a cold job's decoded result, kept for the identity checks.
type served struct {
	req request
	res serve.Result
	raw []byte
}

// client is one closed-loop HTTP client.
type client struct {
	id     int
	d      *daemon
	hc     *http.Client
	script *script
	tr     *tracer

	cold, hit                  []time.Duration // submit until result received
	coldByKind                 map[string][]time.Duration
	gridMPKI                   map[string][]float64 // workload -> served grid jobs' MPKIs
	submit, result, wait, exec []time.Duration
	resultBytes                int64
	colds, repeats             int
	policyAcc, packedAcc       uint64
	gate                       gate
	start                      time.Time
	completed                  []completion
	seen                       map[string]string // request body -> result hash
	prefix                     *digest           // results of the first MinJobs jobs
	firsts                     map[string]served // kind -> first cold result
}

// completion is a job that completed at offset at of the timed phase,
// having replayed instr simulated instructions (0 for a store hit).
type completion struct {
	at    time.Duration
	instr uint64
}

// run submits script jobs until the deadline has passed and at least
// minJobs have completed.
func (c *client) run(start time.Time, seconds float64, minJobs int) {
	c.start = start
	for n := 0; n < minJobs || time.Since(start).Seconds() < seconds; n++ {
		req, repeat := c.script.next(c.d)
		c.do(fmt.Sprintf("client%d-job%d", c.id, n), req, repeat, n < minJobs)
	}
}

// do runs one job: submit, follow its NDJSON stream to the terminal state,
// fetch the result, then read its status for the queue and execution times.
func (c *client) do(run string, req request, repeat, inPrefix bool) {
	fail := func(format string, args ...any) {
		c.gate.check(false, 1, "%s %s: "+format, append([]any{run, req.kind}, args...)...)
	}
	root := c.tr.begin(run, 0, "serve.job")
	defer c.tr.end(root)
	t0 := time.Now()
	code, body, err := c.call(run, root, "serve.submit", http.MethodPost, req.path, req.body)
	c.submit = append(c.submit, time.Since(t0))
	if err != nil || code != http.StatusAccepted {
		fail("submit: status %d, %v: %s", code, err, body)
		return
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		fail("submit: %v", err)
		return
	}
	code, body, err = c.call(run, root, "serve.stream", http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if err != nil || code != http.StatusOK || lines[len(lines)-1] != `{"state":"done"}` {
		fail("stream: status %d, %v, last line %q", code, err, lines[len(lines)-1])
		return
	}
	t1 := time.Now()
	code, raw, err := c.call(run, root, "serve.result", http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	c.result = append(c.result, time.Since(t1))
	latency := time.Since(t0)
	if err != nil || code != http.StatusOK {
		fail("result: status %d, %v: %s", code, err, raw)
		return
	}
	c.resultBytes += int64(len(raw))
	code, body, err = c.call(run, root, "serve.status", http.MethodGet, "/v1/jobs/"+st.ID, nil)
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &st)
	}
	if err != nil || code != http.StatusOK || st.Started == nil || st.Finished == nil {
		fail("status: status %d, %v: %s", code, err, body)
		return
	}

	// A result is checked against the first result for the same request:
	// a store hit must serve exactly what the cold run computed.
	var res serve.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		fail("result: %v", err)
		return
	}
	res.ID = ""
	canon, err := json.Marshal(res)
	if err != nil {
		fail("result: %v", err)
		return
	}
	h := sha256.Sum256(canon)
	sum := hex.EncodeToString(h[:])
	key := string(req.body)
	done := completion{at: t0.Add(latency).Sub(c.start)}
	if !repeat {
		done.instr = req.instr
	}
	c.completed = append(c.completed, done)
	if repeat {
		c.repeats++
		c.hit = append(c.hit, latency)
		c.gate.check(c.seen[key] == sum, 1, "%s: repeat of %s served a different result", run, key)
	} else {
		c.colds++
		c.cold = append(c.cold, latency)
		c.coldByKind[req.kind] = append(c.coldByKind[req.kind], latency)
		if req.kind == "grid" {
			for _, cell := range res.Cells {
				c.gridMPKI[cell.Workload] = append(c.gridMPKI[cell.Workload], cell.MPKI)
			}
		}
		c.wait = append(c.wait, st.Started.Sub(st.Created))
		c.exec = append(c.exec, st.Finished.Sub(*st.Started))
		c.policyAcc += req.policyAcc
		c.packedAcc += req.packedAcc
		c.gate.check(c.seen[key] == "", 1, "%s: cold request %s was already submitted", run, key)
		c.seen[key] = sum
		if _, ok := c.firsts[req.kind]; !ok {
			c.firsts[req.kind] = served{req: req, res: res, raw: raw}
		}
	}
	if inPrefix {
		c.prefix.add(req.kind, sum)
	}
}

// call makes one HTTP round trip inside a span and reads the whole body.
func (c *client) call(run string, parent int, name, method, path string, body []byte) (int, []byte, error) {
	id := c.tr.begin(run, parent, name)
	defer c.tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.d.hs.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveMix is serve-mix: it drives an in-process gippr-serve over loopback
// HTTP with closed-loop clients running seeded job scripts. A job is a cold
// submission (a store miss: grid jobs with a fresh random IPV, sweep jobs,
// explain jobs); a hit is a repeat of one of the client's own earlier
// submissions, which the result store answers. Set-up starts the daemon
// SetupReps times and keeps the last one.
func serveMix(cfg config, tr *tracer) (*outcome, error) { return runServe(cfg, tr, true) }

// runServe runs serve-mix. guard applies the eviction guard to the served
// grid jobs, which needs several grid jobs per workload; the serve probe's
// short script has too few.
func runServe(cfg config, tr *tracer, guard bool) (*outcome, error) {
	out := newOutcome()
	wls, err := workloadsByName(memoryIntensive)
	if err != nil {
		return nil, err
	}
	var d *daemon
	for i := 0; i < cfg.SetupReps; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		runtime.GC()
		id := tr.begin("setup", 0, "bench.setup")
		t := time.Now()
		d, err = startDaemon(cfg, wls)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t))
		tr.end(id)
	}
	defer d.stop()

	transport := &http.Transport{MaxConnsPerHost: cfg.Clients, MaxIdleConnsPerHost: cfg.Clients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	scripts := newScripts(cfg.Seed, cfg.Clients, d.srv.Lab().Cfg.Ways, memoryIntensive)
	clients := make([]*client, cfg.Clients)
	for i := range clients {
		clients[i] = &client{id: i, d: d, hc: hc, script: scripts[i], tr: tr,
			seen: map[string]string{}, prefix: newDigest(), firsts: map[string]served{},
			coldByKind: map[string][]time.Duration{}, gridMPKI: map[string][]float64{}}
	}

	heap0 := liveHeap()
	a0 := allocBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(start, cfg.Seconds, cfg.MinJobs)
		}(c)
	}
	wg.Wait()
	timed := time.Since(start)
	alloc := allocBytes() - a0
	out.heapLive = liveHeap()

	var submit, result, wait, exec []time.Duration
	var colds, repeats int
	var resultBytes int64
	var policyAcc, packedAcc uint64
	var dry int
	byKind := map[string][]time.Duration{}
	gridMPKI := map[string][]float64{}
	all := newDigest()
	for _, c := range clients {
		out.jobs = append(out.jobs, c.cold...)
		out.hits = append(out.hits, c.hit...)
		submit, result = append(submit, c.submit...), append(result, c.result...)
		wait, exec = append(wait, c.wait...), append(exec, c.exec...)
		colds, repeats, resultBytes = colds+c.colds, repeats+c.repeats, resultBytes+c.resultBytes
		policyAcc, packedAcc = policyAcc+c.policyAcc, packedAcc+c.packedAcc
		dry += c.script.dry
		for k, ds := range c.coldByKind {
			byKind[k] = append(byKind[k], ds...)
		}
		for w, ms := range c.gridMPKI {
			gridMPKI[w] = append(gridMPKI[w], ms...)
		}
		out.gate.attempted += c.gate.attempted
		out.gate.failed += c.gate.failed
		out.gate.notes = append(out.gate.notes, c.gate.notes...)
		all.add(c.prefix.sum())
	}
	out.digest = all.sum()
	for _, k := range []string{"grid", "sweep", "explain"} {
		out.info = append(out.info, fmt.Sprintf("cold %s jobs: %d, p50 %.4g ms, p90 %.4g ms",
			k, len(byKind[k]), percentile(millis(byKind[k]), 50), percentile(millis(byKind[k]), 90)))
	}
	if dry > 0 {
		out.info = append(out.info, fmt.Sprintf("%d sweep or explain turns found their pool empty and ran grid jobs", dry))
	}
	out.units = windows(clients, timed)
	jobs := colds + repeats
	out.allocs = []uint64{alloc / uint64(max(jobs, 1))}

	// The daemon's own counters must agree with the script: every repeat a
	// store hit, every cold job a store miss, none failed.
	var snap serve.MetricsSnapshot
	code, body, err := clients[0].call("metrics", 0, "serve.metrics", http.MethodGet, "/metrics", nil)
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &snap)
	}
	out.gate.check(err == nil && snap.StoreHits == uint64(repeats) && snap.StoreMisses == uint64(colds) &&
		snap.JobsFailed == 0 && snap.JobsDone == uint64(colds+repeats), 1,
		"metrics: store hits %d misses %d, done %d failed %d; script ran %d repeats and %d cold jobs (%v)",
		snap.StoreHits, snap.StoreMisses, snap.JobsDone, snap.JobsFailed, repeats, colds, err)

	verifyServed(cfg, &out.gate, clients)
	if guard {
		checkEviction(&out.gate, vectorDistinctShare(gridMPKI), serveMixFloor)
	}

	out.layer["serve.submit_ms_p50"] = percentile(millis(submit), 50)
	out.layer["serve.result_ms_p50"] = percentile(millis(result), 50)
	out.layer["serve.result_kb"] = float64(resultBytes) / 1e3 / float64(max(jobs, 1))
	out.layer["serve.queue_wait_ms_p50"] = percentile(millis(wait), 50)
	out.layer["serve.exec_ms_p50"] = percentile(millis(exec), 50)
	out.layer["serve.store_hit_ratio"] = float64(snap.StoreHits) / float64(max(snap.StoreHits+snap.StoreMisses, 1))
	out.layer["serve.heap_growth_kb_per_job"] = (float64(out.heapLive) - float64(heap0)) / 1e3 / float64(max(colds, 1))
	out.layer["batchreplay.access_share"] = float64(packedAcc) / float64(max(policyAcc, 1))
	return out, nil
}

// vectorDistinctShare is the share of workloads whose served grid jobs,
// each a different random vector, did not all give the same MPKI. A
// workload served fewer than two grid jobs counts as agreeing.
func vectorDistinctShare(mpki map[string][]float64) float64 {
	distinct := 0
	for _, ms := range mpki {
		for _, m := range ms[1:] {
			if m != ms[0] {
				distinct++
				break
			}
		}
	}
	return float64(distinct) / float64(max(len(mpki), 1))
}

// windows cuts the timed phase into whole seconds and counts the jobs, and
// the instructions they replayed, completed in each; a phase shorter than a
// second is one unit.
func windows(clients []*client, timed time.Duration) []unit {
	n := max(int(timed/time.Second), 1)
	units := make([]unit, n)
	for i := range units {
		units[i].d = time.Second
	}
	if timed < time.Second {
		units[0].d = timed
	}
	for _, c := range clients {
		for _, done := range c.completed {
			i := int(done.at / time.Second)
			if timed < time.Second {
				i = 0
			}
			if i < n {
				units[i].done++
				units[i].instr += done.instr
			}
		}
	}
	return units
}

// verifyServed checks each client's first cold job of every kind against
// the in-process engines on a fresh Lab: served grid and sweep cells must
// equal Lab.Grid and Lab.SweepGrid cells, and a served explanation must
// equal Lab.Diff's, byte for byte.
func verifyServed(cfg config, g *gate, clients []*client) {
	lab := experiments.NewLab(scaleOf(cfg)).SetWorkers(cfg.Workers)
	ctx := context.Background()
	for _, c := range clients {
		for _, kind := range []string{"grid", "sweep", "explain"} {
			f, ok := c.firsts[kind]
			if !ok {
				continue
			}
			wls, err := workloadsByName(f.req.job.Workloads)
			if err != nil {
				g.check(false, 1, "identity %s: %v", kind, err)
				continue
			}
			switch kind {
			case "grid":
				v, err := ipv.Parse(f.req.job.IPV)
				if err != nil {
					g.check(false, 1, "identity grid: %v", err)
					continue
				}
				cells, err := lab.Grid(ctx, []experiments.Spec{experiments.SpecForIPV("GIPPR*", v)}, wls, nil)
				g.check(err == nil && equalCells(cells, f.res.Cells), 1, "identity grid %s: served %+v, Lab.Grid %+v", f.req.body, f.res.Cells, cells)
			case "sweep":
				sw := f.req.job.Sweep
				sp := experiments.LatticeSpec{MinSets: sw.MinSets, MaxSets: sw.MaxSets, MaxWays: sw.MaxWays, PLRU: sw.PLRU}
				cells, err := lab.SweepGrid(ctx, sp, wls, nil)
				g.check(err == nil && equalCells(cells, f.res.Cells), 1, "identity sweep %s: served cells differ from Lab.SweepGrid", f.req.body)
			case "explain":
				g.check(equalExplanation(lab, f), 1, "identity explain %s: served explanation differs from Lab.Diff", f.req.body)
			}
		}
	}
}

func equalCells(a, b []experiments.GridCell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalExplanation(lab *experiments.Lab, f served) bool {
	var doc struct {
		Explanations []json.RawMessage `json:"explanations"`
	}
	if json.Unmarshal(f.raw, &doc) != nil || len(doc.Explanations) != 1 {
		return false
	}
	a, errA := experiments.SpecFromRegistry(f.req.job.Explain.PolicyA)
	b, errB := experiments.SpecFromRegistry(f.req.job.Explain.PolicyB)
	w, errW := workload.ByName(f.req.job.Workloads[0])
	if errA != nil || errB != nil || errW != nil {
		return false
	}
	e, err := lab.Diff(a, b, w)
	if err != nil {
		return false
	}
	want, err := json.Marshal(e)
	if err != nil {
		return false
	}
	var got bytes.Buffer
	if json.Compact(&got, doc.Explanations[0]) != nil {
		return false
	}
	return bytes.Equal(got.Bytes(), want)
}
