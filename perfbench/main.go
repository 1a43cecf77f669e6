// Command perfbench is the repository's benchmark. It runs one named
// workload against the serving system, checks the outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one JSON
// object on the last line of standard output:
//
//	bash perfbench/run.sh --workload sim-market --seed 1 --seconds 10 --trace 0
//
// Workloads: sim-market, sim-observed, sim-sessions (batch simulation through
// the public aegaeon API) and gateway-stream (the live HTTP gateway over the
// real-time driver, in process). Inputs are generated here from --seed; the
// system receives only the generated requests. A failed output check prints
// "correct": false and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts carries the command-line settings to a workload.
type runOpts struct {
	seed    int64
	seconds int
	rec     *recorder // nil unless --trace 1
}

// report collects a workload's metrics and failed checks.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	problems          []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed output check unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload: sim-market, sim-observed, sim-sessions or gateway-stream")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the timed section runs")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span file of a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds}
	if *trace == 1 {
		o.rec = newRecorder()
	}
	env := environment()
	fmt.Printf("env  go=%s GOMAXPROCS=%d cpu=%q workload=%s seed=%d seconds=%d trace=%d\n",
		env["go"], env["gomaxprocs"], env["cpu"], *name, *seed, *seconds, *trace)

	var rep *report
	var err error
	switch *name {
	case "sim-market", "sim-observed", "sim-sessions":
		rep, err = runSim(*name, o)
	case "gateway-stream":
		rep, err = runGateway(o)
	default:
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.rec != nil {
		o.rec.printSelfTimes()
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := o.rec.write(path, env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("spans written to", path)
	}
	fmt.Printf("requests  sent %d  succeeded %d  failed %d\n", rep.attempted, rep.attempted-rep.failed, rep.failed)
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric  %-40s %16.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the CPU model name on Linux ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
