package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// searchOp is one optimizer request of the search workload.
type searchOp struct {
	name string
	kind string // "deadline", "budget" or "confidence"
	req  opt.Request
	// ladder groups deadline requests on one program whose minimum cost
	// must not rise as the deadline loosens (ladder rungs are listed in
	// rising-deadline order).
	ladder string
}

type searchBench struct {
	sess *core.Session
	ops  []searchOp
	// first holds the first round's results, which the checks examine;
	// every later round must return the same winners.
	first []*opt.Result
	// trace is attached to every request in the traced phase; winners
	// lists, in call order, the deployment each traced search returned.
	trace   *opt.SearchTrace
	winners []string
}

// searchOps builds the request list from the seed. Constraints are drawn
// from ranges every request can meet.
func searchOps(seed int64, quick bool) []searchOp {
	rng := rand.New(rand.NewSource(seed))
	m1large, err := cloud.TypeByName("m1.large")
	if err != nil {
		panic(err)
	}
	one := []cloud.MachineType{m1large}
	mk := func(w workloads.Workload, maxNodes int, machines []cloud.MachineType) opt.Request {
		return opt.Request{
			Program:  w.Prog,
			PlanCfg:  plan.Config{TileSize: 2048, Densities: w.Densities},
			MaxNodes: maxNodes,
			Machines: machines,
		}
	}
	e10 := workloads.GNMF(400000, 200000, 50, 4, 0.05)
	rsvd := workloads.RSVD(65536, 16384, 256, 1)
	reg := workloads.Regression(500000, 1000, 1, 1e-6)
	mid := workloads.GNMF(40000, 20000, 10, 2, 0.05)
	kl := workloads.GNMFKL(40000, 20000, 10, 1, 0.05)
	pr := workloads.PageRank(200000, 3, 0.001, 0.85)
	maxBig := 64
	if quick {
		e10 = workloads.GNMF(40000, 20000, 10, 1, 0.05)
		rsvd = workloads.RSVD(16384, 8192, 64, 1)
		reg = workloads.Regression(100000, 200, 1, 1e-6)
		maxBig = 8
	}

	var ops []searchOp
	d := mk(e10, maxBig, nil)
	d.DeadlineSec = 3600 * (1 + 7*rng.Float64())
	ops = append(ops, searchOp{name: "e10-deadline", kind: "deadline", req: d})

	b := mk(rsvd, maxBig, nil)
	b.BudgetDollars = 1 + 4*rng.Float64()
	ops = append(ops, searchOp{name: "rsvd-budget", kind: "budget", req: b})

	c := mk(reg, 32, nil)
	c.DeadlineSec = 300 + 300*rng.Float64()
	c.Confidence = 0.9
	ops = append(ops, searchOp{name: "regression-confidence", kind: "confidence", req: c})

	// cumulond-shaped searches: one machine type, at most 16 nodes.
	base := 1200 + 1200*rng.Float64()
	for i, f := range []float64{1, 2, 4} {
		r := mk(mid, 16, one)
		r.DeadlineSec = base * f
		ops = append(ops, searchOp{name: fmt.Sprintf("gnmf-ladder-%d", i), kind: "deadline", req: r, ladder: "gnmf"})
	}
	k := mk(kl, 16, one)
	k.DeadlineSec = 1800 + 1800*rng.Float64()
	ops = append(ops, searchOp{name: "gnmfkl-deadline", kind: "deadline", req: k})
	p := mk(pr, 16, one)
	p.BudgetDollars = 2 + 6*rng.Float64()
	ops = append(ops, searchOp{name: "pagerank-budget", kind: "budget", req: p})
	return ops
}

// slotOptions mirrors the slot counts the optimizer's grid visits for a
// machine type, so set-up can calibrate every model a search needs.
func slotOptions(mt cloud.MachineType) []int {
	var out []int
	seen := map[int]bool{}
	for _, s := range []int{1, mt.Cores / 2, mt.Cores, 2 * mt.Cores} {
		if s >= 1 && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// setupSearch opens a session and calibrates the task-time model of
// every machine type and slot count in the catalog, which is what a
// long-lived optimizer has done before its first request.
func setupSearch(o options) (bench, error) {
	sess := core.NewSession(o.seed)
	for _, mt := range cloud.Catalog() {
		for _, s := range slotOptions(mt) {
			if _, err := sess.Optimizer().ModelFor(mt, s); err != nil {
				return nil, fmt.Errorf("calibrate %s/%d: %w", mt.Name, s, err)
			}
		}
	}
	return &searchBench{sess: sess, ops: searchOps(o.seed, o.quick)}, nil
}

func (b *searchBench) close() {}

func (b *searchBench) call(rs *runState, op searchOp) (*opt.Result, error) {
	req := op.req
	tr := rs.ph.tr
	if tr != nil {
		if b.trace == nil {
			b.trace = opt.NewSearchTrace()
		}
		req.Search = b.trace
	}
	sp := tr.start("opt."+op.kind, 0, 0)
	defer tr.end(sp)
	o := b.sess.Optimizer()
	if op.kind == "budget" {
		return o.MinTimeForBudget(req)
	}
	return o.MinCostForDeadline(req)
}

func (b *searchBench) round(rs *runState) {
	firstRound := b.first == nil
	for i, op := range b.ops {
		runtime.GC()
		t := time.Now()
		res, err := b.call(rs, op)
		rs.op(op.name, time.Since(t).Seconds())
		inst := fmt.Sprintf("%s#%d", op.name, rs.attempted)
		if err != nil {
			rs.fail(inst, "search: %v", err)
			if firstRound {
				b.first = append(b.first, nil)
			}
			continue
		}
		if rs.ph.tr != nil {
			b.winners = append(b.winners, res.Best.String())
		}
		if firstRound {
			b.first = append(b.first, res)
			continue
		}
		if f := b.first[i]; f != nil && !sameWinner(f, res) {
			rs.fail(inst, "winner %s differs from the first round's %s", res.Best, f.Best)
		}
	}
}

func sameWinner(a, b *opt.Result) bool {
	return a.Met == b.Met && a.Best.String() == b.Best.String() &&
		a.Best.Cost == b.Best.Cost && a.Best.PredSeconds == b.Best.PredSeconds
}

// check verifies the first round's winners: each meets its constraint;
// a scan over the request's enumerated candidates finds nothing
// feasible that is cheaper (deadline) or faster (budget); a confident
// winner costs no less than the point-estimate optimum; and minimum
// cost does not rise as a ladder's deadline loosens. After a traced
// phase, opt.Replay of the recorded trace must return the winners the
// searches returned.
func (b *searchBench) check(rs *runState) {
	ladders := map[string][]float64{}
	for i, op := range b.ops {
		res := b.first[i]
		if res == nil {
			continue
		}
		inst := op.name + "#check"
		req := op.req
		req.Search = nil
		cands, err := b.sess.Optimizer().Enumerate(req)
		if err != nil {
			rs.fail(inst, "enumerate: %v", err)
			continue
		}
		if msg := checkWinner(op, res, cands); msg != "" {
			rs.fail(inst, "%s", msg)
		}
		if op.ladder != "" && res.Met {
			ladders[op.ladder] = append(ladders[op.ladder], res.Best.Cost)
		}
	}
	for name, costs := range ladders {
		if msg := checkLadder(name, costs); msg != "" {
			rs.fail("ladder-"+name+"#check", "%s", msg)
		}
	}
	if b.trace != nil {
		if msg := checkReplay(b.trace, b.winners); msg != "" {
			rs.fail("replay#check", "%s", msg)
		}
	}
}

// checkLadder requires a ladder's minimum costs, listed by rising
// deadline, never to rise.
func checkLadder(name string, costs []float64) string {
	for i := 1; i < len(costs); i++ {
		if costs[i] > costs[i-1] {
			return fmt.Sprintf("%s: minimum cost rose from $%.4f to $%.4f as the deadline loosened", name, costs[i-1], costs[i])
		}
	}
	return ""
}

// checkWinner tests one search result against the request's enumerated
// candidates; it returns "" when the winner is right.
func checkWinner(op searchOp, res *opt.Result, cands []opt.Deployment) string {
	best := res.Best
	if best == nil || !res.Met {
		return "constraint not met"
	}
	req := op.req
	switch op.kind {
	case "deadline":
		if best.PredSeconds > req.DeadlineSec {
			return fmt.Sprintf("winner predicts %.1fs over the %.1fs deadline", best.PredSeconds, req.DeadlineSec)
		}
		for _, c := range cands {
			if c.PredSeconds <= req.DeadlineSec && c.Cost < best.Cost {
				return fmt.Sprintf("%s meets the deadline for $%.4f, cheaper than the winner's $%.4f", c.String(), c.Cost, best.Cost)
			}
		}
	case "budget":
		if best.Cost > req.BudgetDollars {
			return fmt.Sprintf("winner costs $%.4f over the $%.4f budget", best.Cost, req.BudgetDollars)
		}
		for _, c := range cands {
			if c.Cost <= req.BudgetDollars && c.PredSeconds < best.PredSeconds {
				return fmt.Sprintf("%s fits the budget in %.1fs, faster than the winner's %.1fs", c.String(), c.PredSeconds, best.PredSeconds)
			}
		}
	case "confidence":
		if best.QuantileSeconds <= 0 || best.QuantileSeconds > req.DeadlineSec || best.Confidence != req.Confidence {
			return fmt.Sprintf("winner's %.0f%% quantile %.1fs does not meet the %.1fs deadline", 100*best.Confidence, best.QuantileSeconds, req.DeadlineSec)
		}
		minCost, found := 0.0, false
		for _, c := range cands {
			if c.PredSeconds <= req.DeadlineSec && (!found || c.Cost < minCost) {
				minCost, found = c.Cost, true
			}
			if sameCluster(c, *best) && c.PredSeconds > req.DeadlineSec {
				return "confident winner's point estimate misses the deadline"
			}
		}
		if !found || best.Cost < minCost {
			return fmt.Sprintf("confident winner costs $%.4f, below the point-estimate optimum $%.4f", best.Cost, minCost)
		}
	}
	return ""
}

func sameCluster(a, b opt.Deployment) bool {
	return a.Cluster.String() == b.Cluster.String() && a.TileSize == b.TileSize
}

// checkReplay replays the recorded search trace and compares each
// search's re-derived winner with the recorded one and with what the
// search call returned.
func checkReplay(tr *opt.SearchTrace, winners []string) string {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return fmt.Sprintf("export trace: %v", err)
	}
	rep, err := opt.Replay(buf.Bytes())
	if err != nil {
		return fmt.Sprintf("replay: %v", err)
	}
	if len(rep) != len(winners) {
		return fmt.Sprintf("replay found %d searches, %d were run", len(rep), len(winners))
	}
	for i, w := range rep {
		if w.Seq != w.RecordedSeq || w.Met != w.RecordedMet {
			return fmt.Sprintf("search %d replays to candidate %d (met %t), recorded %d (met %t)", i, w.Seq, w.Met, w.RecordedSeq, w.RecordedMet)
		}
		if !strings.HasPrefix(winners[i], w.Deployment) {
			return fmt.Sprintf("search %d replays to %q, the call returned %q", i, w.Deployment, winners[i])
		}
	}
	return ""
}

func (b *searchBench) counters(rs *runState, m map[string]float64) {
	p := rs.ph
	n := float64(p.rounds)
	for _, k := range []string{"deadline", "budget", "confidence"} {
		m["opt."+k+"_s"] = p.tr.total("opt."+k) / n
	}
	if b.trace != nil {
		cands := 0
		for _, s := range b.trace.Searches() {
			cands += len(s.Candidates)
		}
		m["opt.candidates"] = float64(cands) / n
		m["opt.sim_trials"] = float64(b.trace.CounterValue(opt.CounterSimTrials)) / n
		m["opt.model_cache_misses"] = float64(b.trace.CounterValue(opt.CounterModelCacheMisses)) / n
	}
	jobs := 0
	for _, op := range b.ops {
		if pl, err := plan.Compile(op.req.Program, op.req.PlanCfg); err == nil {
			jobs += len(pl.Jobs)
		}
	}
	m["plan.jobs"] = float64(jobs)
}
