// Command perfbench is the end-to-end benchmark of the waitornot
// reproduction. It runs one workload through the public
// waitornot.Experiment.Run API and prints one JSON result line:
//
//	perfbench --workload sync-paper --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, taken from
// untraced runs; with --trace 1 it holds the per-layer metrics: phase
// spans of traced runs, exact counts from the event stream, and
// per-call medians of layer probes. Every measured run executes in a
// fresh child process (the binary re-executed with -child), one at a
// time, so process-wide caches start cold as in a real run. Each
// invocation first makes a Parallelism 1 reference run at the same
// seed; a timed run fails unless its event stream and headline outputs
// match the reference bit for bit. See README.md for the workloads and
// what each metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	child := flag.String("child", "", "internal: run one measurement in this process (run or probe) and print it as JSON")
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed (becomes Options.Seed)")
	seconds := flag.Int("seconds", 40, "wall-time budget of one invocation, reference run included")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics")
	parallelism := flag.Int("parallelism", 0, "internal: Options.Parallelism of a child run")
	included := flag.Int("included", 1, "internal: updates per decision for the probes")
	mergeIncluded := flag.Int("merge-included", 1, "internal: updates per merge for the probes")
	calls := flag.String("calls", "", "internal: per-run probe calls as JSON")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seed == 0 {
		fatal(fmt.Errorf("seed must be positive (0 selects the engine default)"))
	}
	switch *child {
	case "run":
		rec, err := runOnce(w, *seed, *parallelism, *trace == 1)
		if err != nil {
			fatal(err)
		}
		writeJSON(rec)
	case "probe":
		var c map[string]int
		if err := json.Unmarshal([]byte(*calls), &c); err != nil {
			fatal(fmt.Errorf("probe calls: %w", err))
		}
		out, err := runProbes(w, *seed, c, *included, *mergeIncluded, time.Duration(*seconds)*time.Second)
		if err != nil {
			fatal(err)
		}
		writeJSON(out)
	case "":
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("--trace must be 0 or 1"))
		}
		b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, start: time.Now()}
		var res *result
		if *trace == 1 {
			res, err = b.traced()
		} else {
			res, err = b.untraced()
		}
		if err != nil {
			fatal(err)
		}
		writeJSON(res)
	default:
		fatal(fmt.Errorf("unknown -child mode %q", *child))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload, a seed and a wall-time budget.
type bench struct {
	w      workload
	seed   uint64
	budget time.Duration
	start  time.Time
	ref    *runRecord
}

// spawn runs one measurement in a fresh child process and decodes its
// JSON line into out. It returns the child's rusage.
func (b *bench) spawn(out any, args ...string) (*syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-workload", b.w.name, "-seed", strconv.FormatUint(b.seed, 10)}, args...)
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), out); err != nil {
		return nil, fmt.Errorf("child %s: decoding output: %w", strings.Join(args, " "), err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

// run makes one experiment run in a child process.
func (b *bench) run(parallelism int, traced bool) (*runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	var rec runRecord
	ru, err := b.spawn(&rec, "-child", "run", "-parallelism", strconv.Itoa(parallelism), "-trace", trace)
	if err != nil {
		return nil, err
	}
	if ru != nil {
		rec.MaxRSSBytes = ru.Maxrss * 1024 // Linux reports KiB
	}
	return &rec, nil
}

// reference makes the Parallelism 1 run every timed run is checked
// against. A reference that fails its own output check means the
// program is broken at this seed, and no result is printed.
func (b *bench) reference() error {
	ref, err := b.run(1, false)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if ref.Failure != "" {
		return fmt.Errorf("reference run: %s", ref.Failure)
	}
	b.ref = ref
	machine := machineContext()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d on %s; reference (Parallelism 1): %.3f s, digest %.12s, final accuracy %v, virtual wait %v ms\n",
		b.w.name, b.seed, machine, ref.RunS, ref.Digest, ref.FinalAccuracy, ref.VirtualWaitMs)
	return nil
}

// fits reports whether another step taking about est still ends
// within the budget once reserve is set aside.
func (b *bench) fits(est, reserve time.Duration) bool {
	return time.Since(b.start)+est+reserve <= b.budget
}

// timedRun makes one Parallelism 0 run and checks it against the
// reference; it returns the record and whether the run passed.
func (b *bench) timedRun(traced bool) (*runRecord, bool, time.Duration) {
	t0 := time.Now()
	rec, err := b.run(0, traced)
	took := time.Since(t0)
	if err == nil {
		err = checkAgainst(b.ref, rec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED run: %v\n", err)
		return rec, false, took
	}
	fmt.Fprintf(os.Stderr, "perfbench: run traced=%v run_s=%.3f setup_s=%.3f alloc_mb=%.1f max_rss_mb=%.1f\n",
		traced, rec.RunS, rec.SetupS, float64(rec.AllocBytes)/1e6, float64(rec.MaxRSSBytes)/1e6)
	return rec, true, took
}

// untraced measures the end-to-end metrics: Parallelism 0 runs in
// fresh processes, as many as the budget holds (at least one).
func (b *bench) untraced() (*result, error) {
	if err := b.reference(); err != nil {
		return nil, err
	}
	res := &result{}
	var ok []*runRecord
	est := time.Duration(0)
	for res.Attempted == 0 || b.fits(est, 0) {
		rec, passed, took := b.timedRun(false)
		res.Attempted++
		est = max(est, took)
		if !passed {
			res.Failed++
			continue
		}
		ok = append(ok, rec)
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("all %d runs failed", res.Attempted)
	}
	res.Correct = res.Failed == 0
	res.Metrics = endToEnd(ok)
	fmt.Fprintf(os.Stderr, "perfbench: %d runs (%d failed); medians: run_s %.3f, setup_s %.3f; final_accuracy %v, virtual_wait_ms %v (exact at this seed)\n",
		res.Attempted, res.Failed, res.Metrics["run_s"].Value, res.Metrics["setup_s"].Value, b.ref.FinalAccuracy, b.ref.VirtualWaitMs)
	return res, nil
}

// traced measures the per-layer metrics: traced and untraced
// Parallelism 0 runs alternate while the budget holds (at least one
// pair), then the layer probes take what is left.
func (b *bench) traced() (*result, error) {
	if err := b.reference(); err != nil {
		return nil, err
	}
	res := &result{}
	probeReserve := max(b.budget/5, 2*time.Second)
	var tracedRuns, plainRuns []*runRecord
	est := time.Duration(0)
	for res.Attempted == 0 || b.fits(2*est, probeReserve) {
		for _, traced := range []bool{true, false} {
			rec, passed, took := b.timedRun(traced)
			res.Attempted++
			est = max(est, took)
			switch {
			case !passed:
				res.Failed++
			case traced:
				tracedRuns = append(tracedRuns, rec)
			default:
				plainRuns = append(plainRuns, rec)
			}
		}
	}
	if len(tracedRuns) == 0 || len(plainRuns) == 0 {
		return nil, fmt.Errorf("%d of %d runs failed; no traced and untraced pair to report", res.Failed, res.Attempted)
	}
	res.Correct = res.Failed == 0

	// The reference's counts are every passing run's: all have its events.
	t := b.ref.Tally
	calls := probeCalls(b.w, t)
	callsJSON, err := json.Marshal(calls)
	if err != nil {
		return nil, err
	}
	probeBudget := max(b.budget-time.Since(b.start), time.Second)
	var probes map[string]float64
	if _, err := b.spawn(&probes, "-child", "probe", "-calls", string(callsJSON),
		"-included", strconv.Itoa(roundMean(t.IncludedDecide, t.Decisions)),
		"-merge-included", strconv.Itoa(roundMean(t.IncludedMerge, t.Merges)),
		"-seconds", strconv.Itoa(int(math.Ceil(probeBudget.Seconds())))); err != nil {
		return nil, err
	}
	res.Metrics = perLayer(b.ref, tracedRuns, plainRuns, probes)

	for _, name := range probeNames {
		m := res.Metrics[name]
		perRun := m.Value * float64(calls[name])
		if m.Unit == "us" {
			perRun /= 1e3
		}
		fmt.Fprintf(os.Stderr, "perfbench: probe %-22s %10.3f %s/call x %6d calls/run = %9.1f ms/run\n",
			name, m.Value, m.Unit, calls[name], perRun)
	}
	runWall := medianOf(tracedRuns, func(r *runRecord) float64 { return r.RunS })
	for _, phase := range phaseNames {
		wall := res.Metrics["bfl."+phase+".wall_s"].Value
		fmt.Fprintf(os.Stderr, "perfbench: phase %-7s %7.3f s  %5.1f%% of run_s\n", phase, wall, 100*wall/runWall)
	}
	return res, nil
}

// roundMean is sum/n rounded to the nearest whole number, at least 1.
func roundMean(sum, n int) int {
	if n == 0 {
		return 1
	}
	return max(int(math.Round(float64(sum)/float64(n))), 1)
}

// machineContext describes the hardware the numbers were taken on.
func machineContext() string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
