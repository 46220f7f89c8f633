package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// matProgram is one program of the materialize workload with its
// generated inputs.
type matProgram struct {
	name   string
	kind   string // "matmul", "gnmf", "rsvd" or "regression"
	w      workloads.Workload
	cfg    plan.Config
	inputs map[string]*linalg.Dense
}

type materializeBench struct {
	sess    *core.Session
	cluster cloud.Cluster
	progs   []matProgram
	// first holds each program's first-round outputs and metrics, which
	// the checks examine; later rounds must match their digests.
	first   []matRun
	digests []string
	// last holds the traced phase's most recent run of each program.
	last []matRun
}

type matRun struct {
	outputs map[string]*linalg.Dense
	metrics *exec.RunMetrics
	jobs    int
	// kChunks is how many chunks the first job's split cuts the inner
	// dimension into.
	kChunks int
}

// materializePrograms sizes the programs: a dense 2048³ product on
// 1024 tiles (enough to engage the parallel GEMM tier), a GNMF with a
// sparse V and fused element-wise updates, an RSVD product chain, and a
// regression that moves far more bytes than it computes.
func materializePrograms(quick bool) []matProgram {
	type spec struct {
		name, kind string
		w          workloads.Workload
		tile       int
	}
	specs := []spec{
		{"matmul-2048", "matmul", workloads.MatMul(2048, 2048, 2048), 1024},
		{"gnmf", "gnmf", workloads.GNMF(3000, 2000, 40, 2, 0.1), 1024},
		{"rsvd", "rsvd", workloads.RSVD(4096, 2048, 128, 1), 1024},
		{"regression", "regression", workloads.Regression(125000, 20, 3, 1e-6), 1024},
	}
	if quick {
		specs = []spec{
			{"matmul-2048", "matmul", workloads.MatMul(128, 96, 112), 64},
			{"gnmf", "gnmf", workloads.GNMF(120, 80, 6, 2, 0.3), 32},
			{"rsvd", "rsvd", workloads.RSVD(128, 96, 8, 1), 32},
			{"regression", "regression", workloads.Regression(2000, 10, 3, 1e-5), 256},
		}
	}
	var out []matProgram
	for _, s := range specs {
		out = append(out, matProgram{
			name: s.name, kind: s.kind, w: s.w,
			cfg: plan.Config{TileSize: s.tile, Densities: s.w.Densities},
		})
	}
	return out
}

// setupMaterialize generates every program's inputs from the seed.
func setupMaterialize(o options) (bench, error) {
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		return nil, err
	}
	// cumulon's defaults: 8 x m1.large with 2 slots each.
	cl, err := cloud.NewCluster(mt, 8, 2)
	if err != nil {
		return nil, err
	}
	progs := materializePrograms(o.quick)
	for i := range progs {
		progs[i].inputs = core.RandomInputs(progs[i].w.Prog, progs[i].cfg, o.seed+int64(i)*1000)
	}
	return &materializeBench{sess: core.NewSession(o.seed), cluster: cl, progs: progs}, nil
}

func (b *materializeBench) close() {}

// execute compiles and runs one program the way `cumulon -materialize`
// does: heuristic splits, the sequential task backend and the default
// kernel parallelism.
func (b *materializeBench) execute(rs *runState, p matProgram) (matRun, error) {
	tr := rs.ph.tr
	root := tr.start("materialize."+p.name, 0, 0)
	defer tr.end(root)
	sp := tr.start("plan.compile", 0, root)
	pl, err := b.sess.Compile(p.w.Prog, p.cfg)
	tr.end(sp)
	if err != nil {
		return matRun{}, err
	}
	pl.AutoSplit(b.cluster.TotalSlots())
	sp = tr.start("exec.run", 0, root)
	res, err := b.sess.ExecutePlan(pl, b.cluster, core.ExecOptions{Inputs: p.inputs})
	tr.end(sp)
	if err != nil {
		return matRun{}, err
	}
	return matRun{outputs: res.Outputs, metrics: res.Metrics, jobs: len(pl.Jobs), kChunks: pl.Jobs[0].Split.CK}, nil
}

func (b *materializeBench) round(rs *runState) {
	firstRound := b.first == nil
	if rs.ph.tr != nil {
		b.last = make([]matRun, len(b.progs))
	}
	for i, p := range b.progs {
		runtime.GC()
		t := time.Now()
		r, err := b.execute(rs, p)
		rs.op(p.name, time.Since(t).Seconds())
		inst := fmt.Sprintf("%s#%d", p.name, rs.attempted)
		if rs.ph.tr != nil {
			b.last[i] = r
		}
		d := ""
		if err != nil {
			rs.fail(inst, "run: %v", err)
		} else {
			d = digestOutputs(r.outputs)
		}
		if firstRound {
			b.first = append(b.first, r)
			b.digests = append(b.digests, d)
		} else if err == nil && d != b.digests[i] {
			rs.fail(inst, "outputs differ from the first round's")
		}
	}
}

// digestOutputs hashes the outputs' bits (FNV-1a over each float64), so
// rounds can be compared without keeping their matrices.
func digestOutputs(outs map[string]*linalg.Dense) string {
	names := make([]string, 0, len(outs))
	for n := range outs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := uint64(14695981039346656037)
	for _, n := range names {
		for _, v := range outs[n].Data {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// check compares the first round's outputs with lang.Interpret on the
// same inputs and tests each program's own properties.
func (b *materializeBench) check(rs *runState) {
	for i, p := range b.progs {
		r := b.first[i]
		if r.outputs == nil {
			continue
		}
		inst := p.name + "#check"
		if msg := checkMaterialized(p, r); msg != "" {
			rs.fail(inst, "%s", msg)
		}
	}
}

// interpretTol bounds the relative Frobenius distance between the
// engine's tiled result and the interpreter's whole-matrix result; only
// summation order differs.
const interpretTol = 1e-9

func checkMaterialized(p matProgram, r matRun) string {
	ref, err := lang.Interpret(p.w.Prog, p.inputs)
	if err != nil {
		return fmt.Sprintf("interpret: %v", err)
	}
	for name, want := range ref {
		got := r.outputs[name]
		if got == nil {
			return fmt.Sprintf("output %s missing", name)
		}
		if d := relDistance(got, want); !(d <= interpretTol) {
			return fmt.Sprintf("output %s is %.3g from lang.Interpret (relative Frobenius)", name, d)
		}
	}
	switch p.kind {
	case "matmul":
		return checkMatmul(p, r)
	case "gnmf":
		return checkGNMF(p, r)
	case "regression":
		return checkRegression(p, r)
	}
	return ""
}

// relDistance is ‖got − want‖_F / ‖want‖_F (NaN on a shape mismatch).
func relDistance(got, want *linalg.Dense) float64 {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return math.NaN()
	}
	var diff, norm float64
	for i, w := range want.Data {
		d := got.Data[i] - w
		diff += d * d
		norm += w * w
	}
	return math.Sqrt(diff) / math.Max(math.Sqrt(norm), 1e-300)
}

// checkMatmul compares sampled entries with dot products computed here,
// and the run's flop count with 2·m·k·n for the products plus one add
// per output entry for each extra chunk of a split inner dimension.
func checkMatmul(p matProgram, r matRun) string {
	a, bm := p.inputs["A"], p.inputs["B"]
	c := r.outputs["C"]
	m, k, n := int64(a.Rows), int64(a.Cols), int64(bm.Cols)
	var product int64
	for _, t := range r.metrics.Tasks {
		if t.Phase == 0 {
			product += t.Flops
		}
	}
	if product != 2*m*k*n {
		return fmt.Sprintf("product tasks count %d flops, want 2mkn = %d", product, 2*m*k*n)
	}
	if want := 2*m*k*n + int64(r.kChunks-1)*m*n; r.metrics.TotalFlops != want {
		return fmt.Sprintf("TotalFlops %d, want 2mkn + (%d-1)mn = %d", r.metrics.TotalFlops, r.kChunks, want)
	}
	rng := rand.New(rand.NewSource(int64(c.Rows)*31 + int64(c.Cols)))
	for s := 0; s < 256; s++ {
		i, j := rng.Intn(c.Rows), rng.Intn(c.Cols)
		dot := 0.0
		for k := 0; k < a.Cols; k++ {
			dot += a.Data[i*a.Cols+k] * bm.Data[k*bm.Cols+j]
		}
		if !relClose(c.Data[i*c.Cols+j], dot, 1e-12) {
			return fmt.Sprintf("C[%d,%d] = %v, dot product %v", i, j, c.Data[i*c.Cols+j], dot)
		}
	}
	return ""
}

// checkGNMF requires non-negative factors and a residual ‖V − WH‖_F no
// larger than at the start: multiplicative updates never increase it.
func checkGNMF(p matProgram, r matRun) string {
	w, h := r.outputs["W"], r.outputs["H"]
	for name, m := range map[string]*linalg.Dense{"W": w, "H": h} {
		for _, v := range m.Data {
			if !(v >= 0) {
				return fmt.Sprintf("factor %s has entry %v", name, v)
			}
		}
	}
	v := p.inputs["V"]
	start := residual(v, p.inputs["W"], p.inputs["H"])
	end := residual(v, w, h)
	if !(end <= start*(1+1e-12)) {
		return fmt.Sprintf("‖V−WH‖ rose from %v to %v", start, end)
	}
	return ""
}

// residual computes ‖V − WH‖_F with a plain loop.
func residual(v, w, h *linalg.Dense) float64 {
	r := w.Cols
	var s float64
	for i := 0; i < v.Rows; i++ {
		for j := 0; j < v.Cols; j++ {
			dot := 0.0
			for k := 0; k < r; k++ {
				dot += w.Data[i*r+k] * h.Data[k*h.Cols+j]
			}
			d := v.Data[i*v.Cols+j] - dot
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// checkRegression requires the least-squares loss ‖Xw − y‖² not to rise
// over the gradient steps.
func checkRegression(p matProgram, r matRun) string {
	x, y := p.inputs["X"], p.inputs["y"]
	start := lsLoss(x, y, p.inputs["w"])
	end := lsLoss(x, y, r.outputs["w"])
	if !(end <= start) {
		return fmt.Sprintf("loss rose from %v to %v", start, end)
	}
	return ""
}

func lsLoss(x, y, w *linalg.Dense) float64 {
	var s float64
	for i := 0; i < x.Rows; i++ {
		dot := 0.0
		for k := 0; k < x.Cols; k++ {
			dot += x.Data[i*x.Cols+k] * w.Data[k]
		}
		d := dot - y.Data[i]
		s += d * d
	}
	return s
}

func (b *materializeBench) counters(rs *runState, m map[string]float64) {
	p := rs.ph
	n := float64(p.rounds)
	m["plan.compile_s"] = p.tr.total("plan.compile") / n
	m["exec.run_s"] = p.tr.total("exec.run") / n
	var jobs, tasks int
	var virt float64
	var flops, local, remote, cache, write, ckpts int64
	for _, r := range b.last {
		if r.metrics == nil {
			continue
		}
		jobs += r.jobs
		tasks += len(r.metrics.Tasks)
		virt += r.metrics.TotalSeconds
		flops += r.metrics.TotalFlops
		write += r.metrics.TotalWriteBytes
		ckpts += int64(r.metrics.Checkpoints)
		for _, t := range r.metrics.Tasks {
			local += t.LocalReadBytes
			remote += t.RackReadBytes + t.RemoteReadBytes
			cache += t.CacheReadBytes
		}
	}
	m["plan.jobs"] = float64(jobs)
	m["exec.tasks"] = float64(tasks)
	m["exec.virtual_s"] = virt
	m["exec.local_read_mb"] = float64(local) / 1e6
	m["exec.remote_read_mb"] = float64(remote) / 1e6
	m["exec.cache_read_mb"] = float64(cache) / 1e6
	m["exec.write_mb"] = float64(write) / 1e6
	m["exec.gflop"] = float64(flops) / 1e9
	if run := m["exec.run_s"]; run > 0 {
		m["linalg.gflops_per_s"] = m["exec.gflop"] / run
	}
	m["ckpt.checkpoints"] = float64(ckpts)
}
