// Command perfbench is the repository's wall-clock benchmark. It drives
// Cumulon only through public entry points (core.Session, opt.Optimizer,
// lang, plan, and cumulond's HTTP API) on three workloads:
//
//	search       deployment searches: opt over sim, model and plan
//	materialize  real tile math: compute, linalg, store and dfs
//	serve        cumulond in-process behind a loopback listener
//
// Usage:
//
//	perfbench --workload search --seed 1 --seconds 30 --trace 0
//
// Each run prepares the workload several times (set-up time is the
// median), then runs whole rounds of the same operations until the time
// is used, then checks every output against computations made apart
// from the program. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; --trace 1 prints
// the per-layer metrics instead of the end-to-end ones and writes a
// Chrome trace and profiles under --out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
}

// A bench is one prepared workload. Its rounds all run the same
// operations, so every run attempts whole rounds.
type bench interface {
	// round runs every operation of the workload once.
	round(rs *runState)
	// check verifies what the rounds produced against independent
	// computations and required properties. It is never timed.
	check(rs *runState)
	// counters adds the workload's per-round layer counters (work counts,
	// spans and the program's public counters) to m. Traced runs only.
	counters(rs *runState, m map[string]float64)
	close()
}

type workloadDef struct {
	name string
	// perJob marks a service workload: latency is per job, pooled over
	// the run, and wall_s is the median round.
	perJob bool
	// minJobs is the fewest jobs a full run may pool for its tail.
	minJobs int
	// rssRounds is the round after which peak_rss_mb is read, so that
	// every run reads it at the same amount of work however fast the
	// host is. serve's is past the server's 512-job history cap.
	rssRounds int
	setup     func(o options) (bench, error)
}

var workloadDefs = []workloadDef{
	{name: "search", rssRounds: 3, setup: setupSearch},
	{name: "materialize", rssRounds: 3, setup: setupMaterialize},
	{name: "serve", perJob: true, minJobs: 200, rssRounds: 50, setup: setupServe},
}

// setupReps is how many times a run prepares its workload; setup_s is
// the median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: search, materialize or serve")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "tiny sizes, for the self-test")
	fs.StringVar(&o.out, "out", ".bench_out", "directory for the traced run's trace and profiles")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runState collects what one process measured: operations attempted
// and failed across the run, and the timings of the current phase.
type runState struct {
	attempted int
	failed    map[string]string // operation instance -> first problem
	ph        *phase
}

// phase is one set of timed rounds. A traced run alternates rounds
// between an untraced and a traced phase, so the two see the same
// process state and their difference is the tracing overhead.
type phase struct {
	tr        *tracer // nil when untraced
	rounds    int
	opOrder   []string
	opTimes   map[string][]float64
	jobTimes  []float64 // perJob workloads: submit to result fetched
	roundWall []float64
	// Summed over the phase's rounds.
	seconds    float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPU      float64
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, opTimes: map[string][]float64{}}
}

// op records one attempted operation and its time.
func (rs *runState) op(name string, sec float64) {
	rs.attempted++
	p := rs.ph
	if _, ok := p.opTimes[name]; !ok {
		p.opOrder = append(p.opOrder, name)
	}
	p.opTimes[name] = append(p.opTimes[name], sec)
}

// fail marks an operation instance failed; an instance counts once
// however many of its checks fail.
func (rs *runState) fail(instance, format string, args ...any) {
	if _, ok := rs.failed[instance]; ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	rs.failed[instance] = msg
	fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %s\n", instance, msg)
}

// measure runs whole rounds, taking the phases in turn, until the next
// turn would end after seconds (by the last turn's length) and every
// phase has at least minRounds rounds and minJobs jobs. It returns the
// process's peak RSS as read when the first phase ended round
// rssRounds, which it also runs at least.
func measure(b bench, rs *runState, phases []*phase, seconds float64, minRounds, minJobs, rssRounds int) (rss float64, err error) {
	start := time.Now()
	var ms0, ms1 runtime.MemStats
	turn := time.Now()
	for i := 0; ; i++ {
		p := phases[i%len(phases)]
		rs.ph = p
		// Every round starts from a collected heap, as a traced round's
		// heap snapshot requires.
		runtime.GC()
		if err := p.tr.resume(); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms0)
		gc0 := gcCPUSeconds()
		t := time.Now()
		b.round(rs)
		p.seconds += time.Since(t).Seconds()
		runtime.ReadMemStats(&ms1)
		p.gcCPU += gcCPUSeconds() - gc0
		p.tr.pause()
		p.rounds++
		p.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		p.mallocs += ms1.Mallocs - ms0.Mallocs
		p.gcCycles += ms1.NumGC - ms0.NumGC
		if p == phases[0] && p.rounds == rssRounds {
			rss = peakRSSMB()
		}
		if i%len(phases) != len(phases)-1 {
			continue
		}
		last := time.Since(turn).Seconds()
		turn = time.Now()
		enough := phases[0].rounds >= rssRounds
		for _, q := range phases {
			enough = enough && q.rounds >= minRounds && len(q.jobTimes) >= minJobs
		}
		if enough && time.Since(start).Seconds()+last > seconds {
			return rss, nil
		}
	}
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// wallStats returns a phase's wall_s, job_p50_s and job_p95_s.
//
// search and materialize hold too few calls for a pooled tail: wall_s
// sums each operation's median, job_p50_s is the median of those
// medians and job_p95_s the slowest operation's median. serve pools
// every job of the run (at least 200) and takes wall_s as the median
// round, first submit to last result.
func wallStats(def workloadDef, p *phase) (wall, p50, p95 float64) {
	if def.perJob {
		return median(p.roundWall), quantile(p.jobTimes, 0.5), quantile(p.jobTimes, 0.95)
	}
	var meds []float64
	for _, name := range p.opOrder {
		meds = append(meds, median(p.opTimes[name]))
	}
	return sum(meds), median(meds), maxOf(meds)
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"job_p50_s", "s", "lower"},
	{"job_p95_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	rs := &runState{failed: map[string]string{}}

	reps := setupReps
	if o.quick {
		reps = 2
	}
	var b bench
	var setupTimes []float64
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t := time.Now()
		b, err = def.setup(o)
		setupTimes = append(setupTimes, time.Since(t).Seconds())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s setup: %v\n", def.name, err)
			return 1
		}
	}
	defer b.close()

	phases := []*phase{newPhase(nil)}
	minRounds, minJobs, rssRounds := 3, def.minJobs, def.rssRounds
	if o.trace {
		phases = append(phases, newPhase(newTracer()))
		minRounds, minJobs, rssRounds = 1, minJobs/2, 1
	}
	if o.quick {
		minRounds, minJobs, rssRounds = 1, 0, 1
	}
	rss, err := measure(b, rs, phases, o.seconds, minRounds, minJobs, rssRounds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	checkStart := time.Now()
	b.check(rs)
	checkSeconds := time.Since(checkStart).Seconds()

	base := phases[0]
	var traced *phase
	var values map[string]float64
	if o.trace {
		traced = phases[1]
		values = layerMetrics(def, b, rs, base, traced)
		if err := traced.tr.write(o.out, def.name, o.seed, values); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		wall, p50, p95 := wallStats(def, base)
		values = map[string]float64{
			"setup_s":     median(setupTimes),
			"wall_s":      wall,
			"job_p50_s":   p50,
			"job_p95_s":   p95,
			"alloc_mb":    float64(base.allocBytes) / float64(base.rounds) / 1e6,
			"peak_rss_mb": rss,
		}
	}

	res := result{
		Correct:   len(rs.failed) == 0,
		Attempted: rs.attempted,
		Failed:    len(rs.failed),
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	writeReport(stdout, def, o, rs, setupTimes, checkSeconds, base, traced)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeReport prints the run's context and raw figures on one line
// ahead of the result: host, toolchain, seed, operations, and each
// operation's median.
func writeReport(w io.Writer, def workloadDef, o options, rs *runState, setupTimes []float64, checkSeconds float64, base, traced *phase) {
	type phaseReport struct {
		Rounds    int                `json:"rounds"`
		Seconds   float64            `json:"seconds"`
		OpMedians map[string]float64 `json:"op_median_s"`
		Jobs      int                `json:"jobs,omitempty"`
	}
	mk := func(p *phase) *phaseReport {
		if p == nil {
			return nil
		}
		r := &phaseReport{Rounds: p.rounds, Seconds: p.seconds, OpMedians: map[string]float64{}, Jobs: len(p.jobTimes)}
		for _, n := range p.opOrder {
			r.OpMedians[n] = median(p.opTimes[n])
		}
		return r
	}
	var problems []string
	for k, v := range rs.failed {
		problems = append(problems, k+": "+v)
	}
	sort.Strings(problems)
	if len(problems) > 10 {
		problems = problems[:10]
	}
	rep := map[string]any{
		"workload":     def.name,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"quick":        o.quick,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"attempted":    rs.attempted,
		"failed":       len(rs.failed),
		"problems":     problems,
		"setup_s":      setupTimes,
		"check_s":      checkSeconds,
		"measured":     mk(base),
		"traced":       mk(traced),
		"command_line": strings.Join(os.Args, " "),
	}
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return
	}
	fmt.Fprintln(w, string(line))
}
