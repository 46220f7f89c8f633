package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// perLayer lists the traced run's metrics. cpu.X_s is CPU self time in
// module X, cpu.pkg.Fn_s the inclusive CPU time of one function, and
// alloc.X_mb the bytes allocated where module X is the innermost
// non-runtime frame. Every value is per round of the workload.
var perLayer = []metricDef{
	{"cpu.lang_s", "s", "lower"},
	{"cpu.lang.FreeVars_s", "s", "lower"},
	{"alloc.lang_mb", "MB", "lower"},
	{"plan.compile_s", "s", "lower"},
	{"plan.jobs", "count", "lower"},
	{"cpu.plan_s", "s", "lower"},
	{"cpu.plan.TaskProfiles_s", "s", "lower"},
	{"alloc.plan_mb", "MB", "lower"},
	{"opt.deadline_s", "s", "lower"},
	{"opt.budget_s", "s", "lower"},
	{"opt.confidence_s", "s", "lower"},
	{"opt.candidates", "count", "lower"},
	{"opt.sim_trials", "count", "lower"},
	{"opt.model_cache_misses", "count", "lower"},
	{"cpu.opt_s", "s", "lower"},
	{"cpu.sim_s", "s", "lower"},
	{"cpu.sim.PredictJob_s", "s", "lower"},
	{"cpu.model_s", "s", "lower"},
	{"alloc.opt_mb", "MB", "lower"},
	{"alloc.sim_mb", "MB", "lower"},
	{"exec.run_s", "s", "lower"},
	{"exec.tasks", "count", "lower"},
	{"exec.virtual_s", "s", "lower"},
	{"exec.local_read_mb", "MB", "lower"},
	{"exec.remote_read_mb", "MB", "lower"},
	{"exec.cache_read_mb", "MB", "lower"},
	{"exec.write_mb", "MB", "lower"},
	{"cpu.exec_s", "s", "lower"},
	{"cpu.exec.schedulePhase_s", "s", "lower"},
	{"cpu.dfs_s", "s", "lower"},
	{"alloc.exec_mb", "MB", "lower"},
	{"exec.gflop", "GFLOP", "lower"},
	{"linalg.gflops_per_s", "GFLOP/s", "higher"},
	{"cpu.compute_s", "s", "lower"},
	{"cpu.linalg_s", "s", "lower"},
	{"cpu.linalg.microKernel_s", "s", "lower"},
	{"cpu.linalg.packB_s", "s", "lower"},
	{"alloc.linalg_mb", "MB", "lower"},
	{"cpu.store_s", "s", "lower"},
	{"cpu.store.DecodeTile_s", "s", "lower"},
	{"cpu.store.EncodeTile_s", "s", "lower"},
	{"alloc.store_mb", "MB", "lower"},
	{"ckpt.checkpoints", "count", "lower"},
	{"cpu.ckpt_s", "s", "lower"},
	{"server.submit_s", "s", "lower"},
	{"server.submit_p95_s", "s", "lower"},
	{"server.complete_s", "s", "lower"},
	{"server.complete_p95_s", "s", "lower"},
	{"server.result_s", "s", "lower"},
	{"server.result_p95_s", "s", "lower"},
	{"server.queue_wait_s", "s", "lower"},
	{"server.run_s", "s", "lower"},
	{"server.plan_cache_hits", "count", "higher"},
	{"server.plan_cache_misses", "count", "lower"},
	{"server.dep_cache_hits", "count", "higher"},
	{"server.dep_cache_misses", "count", "lower"},
	{"server.event_polls", "count", "lower"},
	{"cpu.server_s", "s", "lower"},
	{"cpu.obs_s", "s", "lower"},
	{"cpu.net_s", "s", "lower"},
	{"cpu.json_s", "s", "lower"},
	{"alloc.server_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.mallocs", "count", "lower"},
	{"cpu.runtime_s", "s", "lower"},
	{"cpu.bench_s", "s", "lower"},
	{"cpu.total_s", "s", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// Modules whose CPU self time and allocations are reported.
var (
	cpuModules   = []string{"lang", "plan", "opt", "sim", "model", "exec", "dfs", "compute", "linalg", "store", "ckpt", "server", "obs", "net", "json", "runtime", "bench"}
	allocModules = []string{"lang", "plan", "opt", "sim", "exec", "linalg", "store", "server"}
	// cpuFuncs maps a metric to the function whose inclusive time it is.
	cpuFuncs = map[string]string{
		"cpu.lang.FreeVars_s":      "cumulon/internal/lang.FreeVars",
		"cpu.plan.TaskProfiles_s":  "cumulon/internal/plan.TaskProfiles",
		"cpu.sim.PredictJob_s":     "cumulon/internal/sim.(*Predictor).PredictJob",
		"cpu.exec.schedulePhase_s": "cumulon/internal/exec.(*Engine).schedulePhase",
		"cpu.linalg.microKernel_s": "cumulon/internal/linalg.microKernel",
		"cpu.linalg.packB_s":       "cumulon/internal/linalg.packB",
		"cpu.store.DecodeTile_s":   "cumulon/internal/store.DecodeTile",
		"cpu.store.EncodeTile_s":   "cumulon/internal/store.EncodeTile",
	}
)

// moduleOf names the module a function belongs to: the package under
// cumulon/internal, or a coarse group for the standard library.
func moduleOf(fn string) string {
	const own = "cumulon/internal/"
	switch {
	case strings.HasPrefix(fn, own):
		rest := fn[len(own):]
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier"):
		return "runtime"
	case strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/") ||
		strings.HasPrefix(fn, "internal/poll.") || strings.HasPrefix(fn, "syscall.") ||
		strings.HasPrefix(fn, "bufio."):
		return "net"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	}
	return "other"
}

// span is one wall-clock interval the benchmark spent inside a call to a
// layer. Spans of one request share req; parent is the enclosing span.
type span struct {
	name        string
	id, parent  int64
	req         int64
	tid         int
	start, stop time.Duration
}

// tracer records spans in memory, and the process's CPU profile and
// allocations over the rounds it is resumed for. A nil *tracer records
// nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// cpu holds one CPU profile per traced round; alloc sums the bytes
	// allocated in traced rounds by module.
	cpu   []*bytes.Buffer
	heap0 map[string]memRec
	alloc map[string]float64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), alloc: map[string]float64{}} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, tid int, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	req := id
	if parent > 0 {
		req = t.spans[parent-1].req
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, req: req, tid: tid, start: now})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].stop = now
	t.mu.Unlock()
}

// durations returns the seconds of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.stop - s.start).Seconds())
		}
	}
	return out
}

func (t *tracer) total(name string) float64 { return sum(t.durations(name)) }

// memRec is one allocation site of the heap profile.
type memRec struct {
	stack []uintptr
	bytes int64
	count int64
}

func heapSnapshot() map[string]memRec {
	runtime.GC()
	runtime.GC() // the profile lags up to two cycles
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[string]memRec, len(recs))
	for _, r := range recs {
		// Stacks deeper than the record's 32 frames are cut, so distinct
		// sites can share a key; their counts add up.
		st := r.Stack()
		k := fmt.Sprint(st)
		m := out[k]
		out[k] = memRec{stack: st, bytes: m.bytes + r.AllocBytes, count: m.count + r.AllocObjects}
	}
	return out
}

// resume starts profiling for one traced round.
func (t *tracer) resume() error {
	if t == nil {
		return nil
	}
	t.heap0 = heapSnapshot()
	buf := &bytes.Buffer{}
	if err := pprof.StartCPUProfile(buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.cpu = append(t.cpu, buf)
	return nil
}

// pause ends a traced round's profiling and adds its allocations.
func (t *tracer) pause() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	for mod, b := range allocByModule(t.heap0, heapSnapshot()) {
		t.alloc[mod] += b
	}
}

// allocByModule attributes the bytes allocated between two heap
// snapshots to the innermost non-runtime frame's module, undoing the
// heap profile's sampling the way pprof does.
func allocByModule(before, after map[string]memRec) map[string]float64 {
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	for k, r := range after {
		b, c := r.bytes-before[k].bytes, r.count-before[k].count
		if b <= 0 || c <= 0 {
			continue
		}
		scaled := float64(b)
		if rate > 1 {
			avg := float64(b) / float64(c)
			scaled /= 1 - math.Exp(-avg/rate)
		}
		mod := "runtime"
		frames := runtime.CallersFrames(r.stack)
		for {
			f, more := frames.Next()
			if m := moduleOf(f.Function); m != "runtime" {
				mod = m
				break
			}
			if !more {
				break
			}
		}
		out[mod] += scaled
	}
	return out
}

// layerMetrics assembles the per-layer metrics of a traced run, per
// round of the traced phase.
func layerMetrics(def workloadDef, b bench, rs *runState, base, traced *phase) map[string]float64 {
	m := map[string]float64{}
	n := float64(traced.rounds)
	tr := traced.tr
	self := map[string]float64{}
	incl := map[string]float64{}
	for _, buf := range tr.cpu {
		samples, err := parseCPUProfile(buf.Bytes())
		if err != nil {
			rs.fail("cpu-profile", "%v", err)
			continue
		}
		for _, s := range samples {
			if len(s.stack) == 0 {
				continue
			}
			sec := float64(s.nanos) / 1e9
			self[moduleOf(s.stack[0])] += sec
			seen := map[string]bool{}
			for _, fn := range s.stack {
				if !seen[fn] {
					seen[fn] = true
					incl[fn] += sec
				}
			}
		}
	}
	total := 0.0
	for _, sec := range self {
		total += sec
	}
	m["cpu.total_s"] = total / n
	for _, mod := range cpuModules {
		m["cpu."+mod+"_s"] = self[mod] / n
	}
	for metric, fn := range cpuFuncs {
		m[metric] = incl[fn] / n
	}
	// The heap profile samples allocations; its per-module shares split
	// the bytes the traced rounds actually allocated.
	sampled := 0.0
	for _, b := range tr.alloc {
		sampled += b
	}
	for _, mod := range allocModules {
		if sampled > 0 {
			m["alloc."+mod+"_mb"] = float64(traced.allocBytes) * tr.alloc[mod] / sampled / 1e6 / n
		}
	}
	m["runtime.gc_cycles"] = float64(traced.gcCycles) / n
	m["runtime.gc_cpu_s"] = traced.gcCPU / n
	m["runtime.mallocs"] = float64(traced.mallocs) / n
	wallBase, _, _ := wallStats(def, base)
	wallTraced, _, _ := wallStats(def, traced)
	m["trace.wall_s"] = wallTraced
	m["trace.overhead_pct"] = 100 * (wallTraced/wallBase - 1)
	b.counters(rs, m)
	return m
}

// write saves the traced run's artifacts under dir/<workload>-seed<n>:
// the Chrome trace of the spans, one CPU profile per traced round (in
// cpu/; `go tool pprof` merges them), the process's allocation profile,
// and the per-layer metrics.
func (t *tracer) write(dir, workload string, seed int64, values map[string]float64) error {
	out := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.MkdirAll(filepath.Join(out, "cpu"), 0o755); err != nil {
		return err
	}
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		cat := s.name
		if i := strings.IndexByte(cat, '.'); i >= 0 {
			cat = cat[:i]
		}
		events = append(events, event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.stop - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]int64{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	t.mu.Unlock()
	traceJSON, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	layers, err := json.MarshalIndent(values, "", "  ")
	if err != nil {
		return err
	}
	var allocs bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&allocs, 0); err != nil {
		return err
	}
	files := map[string][]byte{
		"trace.json":   traceJSON,
		"allocs.pprof": allocs.Bytes(),
		"layers.json":  layers,
	}
	for i, buf := range t.cpu {
		files[filepath.Join("cpu", fmt.Sprintf("round-%d.pprof", i))] = buf.Bytes()
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace and profiles in %s\n", out)
	return nil
}
