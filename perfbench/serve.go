package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
	"cumulon/internal/server"
	"cumulon/internal/workloads"
)

// serveJob is one entry of a client's per-round job list.
type serveJob struct {
	name string
	req  server.SubmitRequest
	// fresh jobs rename their matrices every round, so each submission
	// misses the plan cache while the work stays the same.
	fresh bool
	// freshDeadline makes an optimize job's constraint unique per round,
	// so its deployment search misses the cache and runs at admission.
	freshDeadline bool
	// perRoundSeed gives materialized and checkpointing jobs a distinct
	// seed every round.
	perRoundSeed bool
}

// jobRecord is what a client kept of one job, checked after the run.
type jobRecord struct {
	client, round int
	job           *serveJob
	req           server.SubmitRequest
	status        server.JobStatus
	seqs          []int
	lastType      server.EventType
	done          bool
	polls         int
	traced        bool
	err           error
}

type serveBench struct {
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	http    *http.Client
	tenants []string
	jobs    []serveJob
	seed    int64
	rounds  int

	records []jobRecord
	// warm is the cache counters after warm-up; traceCache sums their
	// growth over traced rounds.
	warm       server.CacheStats
	traceCache server.CacheStats
}

// serveJobs is the per-client job mix: virtual runs of every built-in
// program, repeated and fresh program texts, optimize jobs that hit and
// miss the deployment cache, a small materialized job, a checkpointing
// job and a job wider than half the cluster.
func serveJobs(quick bool) []serveJob {
	src := func(w workloads.Workload) string { return w.Prog.String() }
	gnmf := src(workloads.GNMF(40000, 20000, 10, 2, 0.05))
	if quick {
		gnmf = src(workloads.GNMF(4000, 2000, 10, 2, 0.05))
	}
	virtual := []struct {
		name  string
		w     workloads.Workload
		tile  int
		nodes int
	}{
		{"gnmf", workloads.GNMF(40000, 20000, 10, 2, 0.05), 2048, 4},
		{"gnmfkl", workloads.GNMFKL(40000, 20000, 10, 1, 0.05), 2048, 4},
		{"rsvd", workloads.RSVD(65536, 32768, 256, 1), 2048, 4},
		{"regression", workloads.Regression(500000, 1000, 2, 1e-6), 2048, 2},
		{"pagerank", workloads.PageRank(100000, 3, 0.001, 0.85), 2048, 2},
		{"chain", workloads.MatMulChain([]int{40000, 4096, 40000, 1024}), 1024, 4},
	}
	var jobs []serveJob
	for _, v := range virtual {
		jobs = append(jobs, serveJob{name: v.name, req: server.SubmitRequest{
			Program: src(v.w), Tile: v.tile, Nodes: v.nodes, Density: v.w.Densities[firstSparse(v.w)],
		}})
	}
	jobs = append(jobs,
		serveJob{name: "matmul-fresh", fresh: true, req: server.SubmitRequest{
			Program: src(workloads.MatMul(32768, 16384, 32768)), Nodes: 4}},
		serveJob{name: "wide", req: server.SubmitRequest{
			Program: src(workloads.MatMul(65536, 8192, 65536)), Nodes: 14}},
		serveJob{name: "optimize-hit", req: server.SubmitRequest{
			Program: gnmf, Optimize: true, DeadlineSec: 3600, MaxNodes: 16}},
		serveJob{name: "optimize-miss", freshDeadline: true, req: server.SubmitRequest{
			Program: gnmf, Optimize: true, DeadlineSec: 3600, MaxNodes: 16}},
		serveJob{name: "materialized", perRoundSeed: true, req: server.SubmitRequest{
			Program: src(workloads.GNMF(60, 40, 4, 2, 0.5)), Tile: 16, Density: 0.5,
			Materialize: true, Nodes: 2}},
		serveJob{name: "checkpointed", perRoundSeed: true, req: server.SubmitRequest{
			Program: gnmf, CheckpointEvery: 1, Nodes: 4}},
	)
	return jobs
}

func firstSparse(w workloads.Workload) string {
	for _, in := range w.Prog.Inputs {
		if in.Sparse {
			return in.Name
		}
	}
	return ""
}

// setupServe boots cumulond on a loopback listener and warms its caches
// with one submission of every repeated job.
func setupServe(o options) (bench, error) {
	srv, err := server.New(server.Config{Machine: "m1.large", Nodes: 16, Slots: 2, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	b := &serveBench{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan struct{}),
		base:    "http://" + ln.Addr().String(),
		http:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		tenants: []string{"analytics", "reporting"},
		jobs:    serveJobs(o.quick),
		seed:    o.seed,
	}
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := range b.jobs {
		j := &b.jobs[i]
		if j.fresh || j.freshDeadline {
			continue
		}
		for _, tenant := range b.tenants {
			rec := b.runJob(nil, 0, -1, tenant, j)
			if rec.err != nil || rec.status.State != server.StateSucceeded {
				b.close()
				return nil, fmt.Errorf("warm-up job %s: %v %s", j.name, rec.err, rec.status.Error)
			}
		}
	}
	st, err := b.stats()
	if err != nil {
		b.close()
		return nil, err
	}
	b.warm = st.Cache
	return b, nil
}

func (b *serveBench) close() {
	_ = b.hs.Close()
	<-b.served
	b.http.CloseIdleConnections()
	b.srv.Close()
}

// request builds a job's submission for one client and round.
func (b *serveBench) request(client, round int, tenant string, j *serveJob) server.SubmitRequest {
	req := j.req
	req.Tenant = tenant
	req.Seed = b.seed
	if j.fresh {
		req.Program = renameMatrices(req.Program, fmt.Sprintf("_r%dc%d", round, client))
	}
	if j.freshDeadline {
		req.DeadlineSec += float64(1 + round*len(b.tenants) + client)
	}
	if j.perRoundSeed {
		req.Seed = b.seed*100003 + int64(round*len(b.tenants)+client) + 1
	}
	return req
}

// renameMatrices appends suffix to every matrix name of a program text.
func renameMatrices(src, suffix string) string {
	prog, err := lang.Parse(src)
	if err != nil {
		panic(err)
	}
	names := map[string]bool{}
	for _, in := range prog.Inputs {
		names[in.Name] = true
	}
	for _, st := range prog.Stmts {
		names[st.Name] = true
	}
	var out, tok strings.Builder
	flush := func() {
		s := tok.String()
		if names[s] {
			s += suffix
		}
		out.WriteString(s)
		tok.Reset()
	}
	for _, r := range src {
		if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			tok.WriteRune(r)
			continue
		}
		flush()
		out.WriteRune(r)
	}
	flush()
	return out.String()
}

// runJob submits one job, follows its event stream to the terminal
// event, and fetches its result: the closed loop of an analyst who waits
// for the answer.
func (b *serveBench) runJob(tr *tracer, client, round int, tenant string, j *serveJob) jobRecord {
	rec := jobRecord{client: client, round: round, job: j, req: b.request(client, round, tenant, j)}
	root := tr.start("serve."+j.name, client+1, 0)
	defer tr.end(root)

	sp := tr.start("server.submit", client+1, root)
	body, err := json.Marshal(rec.req)
	if err != nil {
		rec.err = err
		return rec
	}
	var st server.JobStatus
	err = b.do("POST", "/v1/jobs", body, http.StatusAccepted, &st)
	tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}

	sp = tr.start("server.complete", client+1, root)
	next := 0
	for {
		var page server.EventPage
		rec.polls++
		if err := b.do("GET", fmt.Sprintf("/v1/jobs/%s/events?since=%d&wait=10", st.ID, next), nil, http.StatusOK, &page); err != nil {
			rec.err = fmt.Errorf("events: %w", err)
			tr.end(sp)
			return rec
		}
		for _, ev := range page.Events {
			rec.seqs = append(rec.seqs, ev.Seq)
			rec.lastType = ev.Type
		}
		next = page.Next
		if page.Done {
			rec.done = true
			break
		}
	}
	tr.end(sp)

	sp = tr.start("server.result", client+1, root)
	err = b.do("GET", "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &rec.status)
	tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("result: %w", err)
	}
	return rec
}

// do makes one API call and decodes its JSON answer into out.
func (b *serveBench) do(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := b.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// round runs every client's job list once, the clients side by side.
func (b *serveBench) round(rs *runState) {
	p := rs.ph
	var before server.Stats
	if p.tr != nil {
		var err error
		if before, err = b.stats(); err != nil {
			rs.fail("stats", "%v", err)
		}
	}
	round := b.rounds
	b.rounds++
	type timed struct {
		rec jobRecord
		sec float64
	}
	results := make([][]timed, len(b.tenants))
	start := time.Now()
	var wg sync.WaitGroup
	for c, tenant := range b.tenants {
		wg.Add(1)
		go func(c int, tenant string) {
			defer wg.Done()
			for i := range b.jobs {
				t := time.Now()
				rec := b.runJob(p.tr, c, round, tenant, &b.jobs[i])
				results[c] = append(results[c], timed{rec, time.Since(t).Seconds()})
			}
		}(c, tenant)
	}
	wg.Wait()
	p.roundWall = append(p.roundWall, time.Since(start).Seconds())
	if p.tr != nil {
		after, err := b.stats()
		if err != nil {
			rs.fail("stats", "%v", err)
		}
		c, d0, d1 := &b.traceCache, before.Cache, after.Cache
		c.PlanHits += d1.PlanHits - d0.PlanHits
		c.PlanMisses += d1.PlanMisses - d0.PlanMisses
		c.DepHits += d1.DepHits - d0.DepHits
		c.DepMisses += d1.DepMisses - d0.DepMisses
	}
	for _, rr := range results {
		for _, t := range rr {
			t.rec.traced = p.tr != nil
			rs.op(t.rec.job.name, t.sec)
			p.jobTimes = append(p.jobTimes, t.sec)
			if t.rec.err != nil {
				rs.fail(fmt.Sprintf("%s#r%dc%d", t.rec.job.name, t.rec.round, t.rec.client), "%v", t.rec.err)
			}
			b.records = append(b.records, t.rec)
		}
	}
}

func (b *serveBench) stats() (server.Stats, error) {
	var st server.Stats
	err := b.do("GET", "/v1/stats", nil, http.StatusOK, &st)
	return st, err
}

// check verifies every job: it succeeded, its event stream is contiguous
// from 0 and ends in a terminal event, and a materialized job's output
// norms match lang.Interpret on core.RandomInputs with the job's seed.
// /v1/stats must count every admitted job completed, and its cache
// counters must show exactly one plan miss per fresh program text and
// one search per fresh optimize constraint since warm-up.
func (b *serveBench) check(rs *runState) {
	for _, r := range b.records {
		if r.err != nil {
			continue // already failed
		}
		inst := fmt.Sprintf("%s#r%dc%d", r.job.name, r.round, r.client)
		if msg := checkJob(r); msg != "" {
			rs.fail(inst, "%s", msg)
		}
	}
	st, err := b.stats()
	if err != nil {
		rs.fail("stats#check", "%v", err)
		return
	}
	for _, t := range st.Tenants {
		if t.Completed != t.Submitted || t.Failed+t.Canceled+t.Running+t.Queued != 0 {
			rs.fail("stats#check", "tenant %s: %d submitted, %d completed, %d failed, %d running, %d queued",
				t.Tenant, t.Submitted, t.Completed, t.Failed, t.Running, t.Queued)
		}
	}
	var fresh, freshDep, optimize int64
	for _, j := range b.jobs {
		if j.fresh {
			fresh++
		}
		if j.freshDeadline {
			freshDep++
		}
		if j.req.Optimize {
			optimize++
		}
	}
	n := int64(b.rounds * len(b.tenants))
	c := st.Cache
	got := [4]int64{c.PlanHits - b.warm.PlanHits, c.PlanMisses - b.warm.PlanMisses, c.DepHits - b.warm.DepHits, c.DepMisses - b.warm.DepMisses}
	want := [4]int64{n * (int64(len(b.jobs)) - fresh), n * fresh, n * (optimize - freshDep), n * freshDep}
	if got != want {
		rs.fail("cache#check", "plan hits/misses and deployment hits/misses since warm-up are %v, want %v", got, want)
	}
}

func checkJob(r jobRecord) string {
	st := r.status
	if st.State != server.StateSucceeded || st.Result == nil {
		return fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if !r.done || !server.JobState(stateOf(r.lastType)).Terminal() {
		return fmt.Sprintf("event stream ended on %q (done %t)", r.lastType, r.done)
	}
	for i, s := range r.seqs {
		if s != i {
			return fmt.Sprintf("event %d has seq %d", i, s)
		}
	}
	j := r.job
	if j.req.CheckpointEvery > 0 && st.Result.Checkpoints == 0 {
		return "checkpointing job wrote no checkpoint"
	}
	if j.req.Materialize {
		return checkDigests(r.req, st.Result.Outputs)
	}
	return ""
}

// stateOf maps a terminal event type to its job state.
func stateOf(t server.EventType) string {
	switch t {
	case server.EvDone:
		return string(server.StateSucceeded)
	case server.EvFailed:
		return string(server.StateFailed)
	case server.EvCanceled:
		return string(server.StateCanceled)
	}
	return string(t)
}

// checkDigests recomputes a materialized job's outputs with
// lang.Interpret on the inputs the server generates for its seed.
func checkDigests(req server.SubmitRequest, outs []server.OutputInfo) string {
	prog, err := lang.Parse(req.Program)
	if err != nil {
		return err.Error()
	}
	cfg := plan.Config{TileSize: req.Tile, Densities: map[string]float64{}}
	for _, in := range prog.Inputs {
		if in.Sparse {
			cfg.Densities[in.Name] = req.Density
		}
	}
	ref, err := lang.Interpret(prog, core.RandomInputs(prog, cfg, req.Seed))
	if err != nil {
		return err.Error()
	}
	if len(outs) != len(ref) {
		return fmt.Sprintf("%d outputs reported, program has %d", len(outs), len(ref))
	}
	for _, o := range outs {
		want := ref[o.Name]
		if want == nil {
			return fmt.Sprintf("unknown output %s", o.Name)
		}
		if !relClose(o.Frobenius, want.FrobeniusNorm(), 1e-9) {
			return fmt.Sprintf("output %s frobenius %v, lang.Interpret %v", o.Name, o.Frobenius, want.FrobeniusNorm())
		}
	}
	return ""
}

func (b *serveBench) counters(rs *runState, m map[string]float64) {
	p := rs.ph
	n := float64(p.rounds)
	for _, name := range []string{"submit", "complete", "result"} {
		d := p.tr.durations("server." + name)
		m["server."+name+"_s"] = quantile(d, 0.5)
		m["server."+name+"_p95_s"] = quantile(d, 0.95)
	}
	// Timings average over every traced round; work counts come from the
	// first traced round alone, so they repeat exactly for a seed.
	first := -1
	for _, r := range b.records {
		if r.traced {
			first = r.round
			break
		}
	}
	var jobs, tasks, ckpts, polls int
	var virt, waitSum, runSum, matRun float64
	var flops, matFlops int64
	for _, r := range b.records {
		if !r.traced {
			continue
		}
		polls += r.polls
		st := r.status
		waitSum += st.QueueWaitSec
		runSum += st.RunSec
		res := st.Result
		if res == nil {
			continue
		}
		if r.req.Materialize {
			matFlops += res.TotalFlops
			matRun += st.RunSec
		}
		if r.round == first {
			jobs += res.Jobs
			tasks += res.Tasks
			ckpts += res.Checkpoints
			virt += res.TotalSeconds
			flops += res.TotalFlops
		}
	}
	m["server.queue_wait_s"] = waitSum / n
	m["server.run_s"] = runSum / n
	// cumulond runs the engine itself; its reported run time stands in
	// for the span the other workloads put around Session.ExecutePlan.
	m["exec.run_s"] = runSum / n
	m["plan.jobs"] = float64(jobs)
	m["exec.tasks"] = float64(tasks)
	m["exec.virtual_s"] = virt
	m["exec.gflop"] = float64(flops) / 1e9
	if matRun > 0 {
		m["linalg.gflops_per_s"] = float64(matFlops) / 1e9 / matRun
	}
	m["ckpt.checkpoints"] = float64(ckpts)
	m["server.event_polls"] = float64(polls) / n
	c := b.traceCache
	m["server.plan_cache_hits"] = float64(c.PlanHits) / n
	m["server.plan_cache_misses"] = float64(c.PlanMisses) / n
	m["server.dep_cache_hits"] = float64(c.DepHits) / n
	m["server.dep_cache_misses"] = float64(c.DepMisses) / n
}
