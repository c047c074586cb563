// Command bench is the repository's benchmark: four workloads over the
// agreement service and the simulator, six end-to-end metrics each, and
// a per-layer ledger measured from outside the system (public counters,
// the shipped tracer, process and runtime accounting, and timed calls
// into exported functions). See README.md in this directory.
//
//	go run ./bench -workload svc_chan_64b -seed 1
//	go run ./bench -workload sim_n7 -seed 1 -trace 1
//	go run ./bench -check
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is the
// human-readable report. The process exits nonzero when the run could
// not be measured or a contract check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// benchProcs pins GOMAXPROCS: the reference host has two cores, and
// before Go 1.25 the runtime ignores a container's CPU quota, so an
// unpinned run on a bigger machine would measure a different program.
const benchProcs = 2

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOpts are the command-line knobs of one measured run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spanFile string
	// smoke shrinks warm-up, set-up cycles, probes and the simulator's
	// cell list so -check finishes in seconds.
	smoke bool
}

func main() {
	var (
		o     runOpts
		trace int
		check bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, " | "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for generated values, node randomness and simulator cells")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	flag.StringVar(&o.spanFile, "spans", "", "traced run: also write the benchmark-side spans to this file as JSONL")
	flag.BoolVar(&check, "check", false, "smoke every workload with 2 s windows and validate schema and contract checks")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the harness's tables define it")
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	if *spec {
		enc, err := json.MarshalIndent(currentSpec(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(enc))
		return
	}
	if check {
		if err := runCheck(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: check:", err)
			os.Exit(1)
		}
		fmt.Println("bench: check ok")
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	o.traced = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	res, err := runWorkload(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// environment is recorded in every report.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
}

func currentEnvironment(o runOpts) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Workload: o.workload, Seed: o.seed, Traced: o.traced, Seconds: o.seconds,
	}
	// The commit is stamped only when the binary was built inside a git
	// work tree; a bare checkout reports "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// report collects the printed lines of one run.
type report struct {
	env     environment
	notes   []string           // window lengths, sample counts, omitted phases…
	values  map[string]float64 // every metric computed, by name
	reasons []string           // contract violations
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runWorkload measures one workload and prints its report to out.
func runWorkload(o runOpts, out *os.File) (*result, error) {
	rep := &report{env: currentEnvironment(o), values: make(map[string]float64)}
	var (
		attempted, failed int
		err               error
	)
	if o.workload == wlSim {
		attempted, failed, err = measureSim(o, rep)
	} else {
		i := slices.IndexFunc(svcWorkloads, func(w svcWorkload) bool { return w.name == o.workload })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
		}
		attempted, failed, err = measureSvc(svcWorkloads[i], o, rep)
	}
	if err != nil {
		return nil, err
	}

	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("internal: metric %s was not computed", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	printReport(out, rep, res)
	return res, nil
}

func printReport(out *os.File, rep *report, res *result) {
	envJSON, _ := json.Marshal(rep.env)
	fmt.Fprintf(out, "env %s\n", envJSON)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	units := make(map[string]string)
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(rep.values))
	for name := range rep.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "metric %-34s %16.6g %s\n", name, rep.values[name], units[name])
	}
	for _, r := range rep.reasons {
		fmt.Fprintf(out, "FAIL %s\n", r)
	}
	fmt.Fprintf(out, "operations attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// Timing of a full-length run, derived from -seconds.
func svcTimingFor(o runOpts, window float64) svcTiming {
	tm := svcTiming{
		warmup:      3 * time.Second,
		window:      time.Duration(window * float64(time.Second)),
		drain:       60 * time.Second,
		setupCycles: 51,
	}
	if o.smoke {
		tm.warmup = time.Second
		tm.setupCycles = 5
	}
	return tm
}

func measureSvc(w svcWorkload, o runOpts, rep *report) (attempted, failed int, err error) {
	if !o.traced {
		tm := svcTimingFor(o, o.seconds)
		p, err := runSvcPass(w, tm, o.seed, false)
		if err != nil {
			return 0, 0, err
		}
		v := verify(p)
		s := summarize(p, v)
		for k, val := range svcEndToEnd(p, s) {
			rep.values[k] = val
		}
		noteSvc(rep, p, s, v)
		rep.reasons = v.reasons
		return v.attempted, v.failed, nil
	}
	return measureSvcTraced(w, o, rep)
}

func noteSvc(rep *report, p *svcPass, s svcSummary, v *svcVerdict) {
	rep.note("window warmup=%.1fs timed=%.3fs drain<=%.0fs setup_cycles=%d", p.tm.warmup.Seconds(), s.windowSecs, p.tm.drain.Seconds(), len(p.setup))
	rep.note("samples decisions=%.2f latency=%d heap=%d submitted_in_window=%d cut_in_window=%d sessions_total=%d",
		s.decisions, len(s.latencies), len(p.heapLive), s.submitted, s.cutInWin, len(v.sessions))
	rep.note("latency ms p10=%.1f p25=%.1f p50=%.1f p75=%.1f p90=%.1f p95=%.1f max=%.1f",
		percentile(s.latencies, 0.10), percentile(s.latencies, 0.25), percentile(s.latencies, 0.50),
		percentile(s.latencies, 0.75), percentile(s.latencies, 0.90), percentile(s.latencies, 0.95), percentile(s.latencies, 1))
}

func measureSim(o runOpts, rep *report) (attempted, failed int, err error) {
	tm := simTiming{cells: simCellCount(o.seconds), setupCycles: 51}
	if o.smoke {
		tm = simTiming{cells: 2, setupCycles: 5}
	}
	p, err := runSimPass(tm, o.seed, o.traced)
	if err != nil {
		return 0, 0, err
	}
	for k, val := range simEndToEnd(p) {
		rep.values[k] = val
	}
	rep.note("cells=%d (fixed from -seconds; odd fault-free, even Byzantine) wall=%.3fs setup_cycles=%d heap_samples=%d",
		len(p.cells), p.wallSecs, len(p.setup), len(p.heapLive))
	for i, c := range p.cells {
		rep.note("cell %d seed=%d byzantine=%v wall=%.1fms cpu=%.1fms messages=%d bytes=%d shuns=%d",
			i+1, c.seed, c.byzantine, c.wallMs, c.cpuMs, c.messages, c.bytes, c.shuns)
	}
	attempted, failed, rep.reasons = simVerdict(p)
	if o.traced {
		extra, err := simLayers(o, p, rep)
		if err != nil {
			return 0, 0, err
		}
		attempted, failed = attempted+1, failed+extra
	}
	return attempted, failed, nil
}
