package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cumulon/internal/linalg"
	"cumulon/internal/opt"
	"cumulon/internal/server"
)

// runQuick runs one workload end to end at tiny sizes and returns its
// result line.
func runQuick(t *testing.T, workload string, trace bool) result {
	t.Helper()
	args := []string{"--workload", workload, "--quick", "--seconds", "0.2", "--out", t.TempDir()}
	if trace {
		args = append(args, "--trace", "1")
	}
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: exit %d, result %+v\n%s", workload, code, res, errb.String())
	}
	return res
}

// TestWorkloadsQuick runs every workload end to end with its checks, and
// requires every metric the benchmark declares, by name and unit.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res := runQuick(t, w.name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s missing or unit %q", w.name, trace, d.Name, v.Unit)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadDefs[i].name)
		}
	}
}

func newRunState(tr *tracer) *runState {
	return &runState{failed: map[string]string{}, ph: newPhase(tr)}
}

// TestSearchChecksCatchWrongWinners shows each search check passing on
// the optimizer's answers and failing on deliberately wrong ones.
func TestSearchChecksCatchWrongWinners(t *testing.T) {
	bb, err := setupSearch(options{seed: 3, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*searchBench)
	rs := newRunState(newTracer())
	b.round(rs)
	b.check(rs)
	if len(rs.failed) != 0 {
		t.Fatalf("checks failed on the optimizer's own answers: %v", rs.failed)
	}
	for i, op := range b.ops {
		res := b.first[i]
		req := op.req
		cands, err := b.sess.Optimizer().Enumerate(req)
		if err != nil {
			t.Fatal(err)
		}
		wrong := *res
		var pick *opt.Deployment
		for j := range cands {
			c := &cands[j]
			switch op.kind {
			case "deadline":
				// A feasible but costlier winner, or one over the deadline.
				if c.Cost > res.Best.Cost || c.PredSeconds > req.DeadlineSec {
					pick = c
				}
			case "budget":
				if c.PredSeconds > res.Best.PredSeconds || c.Cost > req.BudgetDollars {
					pick = c
				}
			case "confidence":
				// The winner, promising a quantile over the deadline.
				q := *res.Best
				q.QuantileSeconds = req.DeadlineSec + 1
				pick = &q
			}
		}
		if pick == nil {
			t.Fatalf("%s: no wrong winner among %d candidates", op.name, len(cands))
		}
		wrong.Best = pick
		if msg := checkWinner(op, &wrong, cands); msg == "" {
			t.Errorf("%s: winner %s passed the checks", op.name, pick)
		}
		unmet := *res
		unmet.Met = false
		if checkWinner(op, &unmet, cands) == "" {
			t.Errorf("%s: an unmet constraint passed the checks", op.name)
		}
	}
	if msg := checkLadder("gnmf", []float64{1, 1, 2}); msg == "" {
		t.Error("a minimum cost that rises with the deadline passed the ladder check")
	}
	if msg := checkReplay(b.trace, b.winners); msg != "" {
		t.Fatalf("replay of the real trace failed: %s", msg)
	}
	swapped := append([]string{"1 x nothing"}, b.winners[1:]...)
	if checkReplay(b.trace, swapped) == "" {
		t.Error("replay accepted a winner the search did not return")
	}
}

// TestMaterializeChecksCatchWrongOutputs perturbs each program's output
// and metrics and expects its checks to fail.
func TestMaterializeChecksCatchWrongOutputs(t *testing.T) {
	bb, err := setupMaterialize(options{seed: 5, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*materializeBench)
	rs := newRunState(nil)
	b.round(rs)
	b.check(rs)
	if len(rs.failed) != 0 {
		t.Fatalf("checks failed on the engine's own outputs: %v", rs.failed)
	}
	perturb := func(r matRun, name string, f func(d *linalg.Dense)) matRun {
		outs := map[string]*linalg.Dense{}
		for k, v := range r.outputs {
			outs[k] = v.Clone()
		}
		f(outs[name])
		r.outputs = outs
		return r
	}
	scale := func(s float64) func(d *linalg.Dense) {
		return func(d *linalg.Dense) {
			for i := range d.Data {
				d.Data[i] *= s
			}
		}
	}
	for i, p := range b.progs {
		r := b.first[i]
		for name := range r.outputs {
			if checkMaterialized(p, perturb(r, name, scale(1+1e-6))) == "" {
				t.Errorf("%s: output %s scaled by 1+1e-6 passed", p.name, name)
			}
		}
		// Each program's own property check, on an output the
		// interpreter comparison alone would also reject.
		var msg string
		switch p.kind {
		case "matmul":
			if checkMatmul(p, perturb(r, "C", scale(1+1e-9))) == "" {
				t.Errorf("%s: entries off by 1e-9 passed the dot-product samples", p.name)
			}
			m := *r.metrics
			m.TotalFlops++
			bad := r
			bad.metrics = &m
			msg = checkMatmul(p, bad)
		case "gnmf":
			msg = checkGNMF(p, perturb(r, "H", func(d *linalg.Dense) { d.Data[0] = -d.Data[0] }))
			if msg == "" {
				t.Errorf("%s: a negative factor entry passed", p.name)
			}
			msg = checkGNMF(p, perturb(r, "W", scale(50)))
		case "regression":
			msg = checkRegression(p, perturb(r, "w", scale(10)))
		default:
			msg = "no property check"
		}
		if msg == "" {
			t.Errorf("%s: a wrong output passed its property check", p.name)
		}
	}
}

// TestServeChecksCatchWrongJobs breaks a served job's event stream,
// state, checkpoint count, output norm and the cache counters.
func TestServeChecksCatchWrongJobs(t *testing.T) {
	bb, err := setupServe(options{seed: 7, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*serveBench)
	defer b.close()
	rs := newRunState(nil)
	b.round(rs)
	b.check(rs)
	if len(rs.failed) != 0 {
		t.Fatalf("checks failed on the server's own answers: %v", rs.failed)
	}
	for _, r := range b.records {
		if checkJob(r) != "" {
			t.Fatalf("%s: %s", r.job.name, checkJob(r))
		}
		bad := []jobRecord{r, r, r}
		bad[0].seqs = append(append([]int(nil), r.seqs[:1]...), r.seqs[2:]...)
		bad[1].lastType = server.EvRunning
		bad[2].status.State = server.StateFailed
		if r.job.req.Materialize {
			res := *r.status.Result
			res.Outputs = append([]server.OutputInfo(nil), res.Outputs...)
			res.Outputs[0].Frobenius *= 1 + 1e-6
			m := r
			m.status.Result = &res
			bad = append(bad, m)
		}
		if r.job.req.CheckpointEvery > 0 {
			res := *r.status.Result
			res.Checkpoints = 0
			m := r
			m.status.Result = &res
			bad = append(bad, m)
		}
		for i, w := range bad {
			if checkJob(w) == "" {
				t.Errorf("%s: broken record %d passed", r.job.name, i)
			}
		}
	}
	b.warm.PlanMisses--
	b.check(rs)
	if _, ok := rs.failed["cache#check"]; !ok {
		t.Error("a wrong plan-miss count passed the cache check")
	}
}
