// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the entry points users run — experiments.ScenarioFor,
// then core.Scenario.Run, RunDistributed or RunDynamic, as cmd/massf and
// cmd/experiments do — checks every output, and prints its metrics by name
// with their units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": 25.1, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the run is repeated with the benchmark's own spans
// around each call into a layer's public functions, and the metrics are the
// per-layer ones. Usage, from the repository root:
//
//	python3 perfbench/run.py --workload table1-scalapack --seed 42 --seconds 25 --trace 0
//
// run.py builds this package into .bench_build and runs it; the binary also
// runs directly (go run . --workload ... from this directory).
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// deadline bounds one invocation; ops observe it at window barriers, so a
// wedged run reports failures instead of overrunning the caller's limit.
const deadline = 165 * time.Second

// setupReps is how many extra times a run repeats the workload's set-up
// (without running it) so setup_s is a median, not one cold sample.
const setupReps = 19

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "measurement budget: whole passes are repeated while they fit")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	commit := fs.String("commit", "unknown", "source commit for the report stamp")
	state := fs.String("state-dir", ".bench_build", "directory for span dumps and the cross-run determinism record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	st := machineStamp(*commit)
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)
	fmt.Fprintf(stdout, "workload %s seed %d trace %d\n", w.Name, *seed, *trace)

	units := w.Units(*seed)
	var rep *report
	if *trace == 0 {
		rep = measure(ctx, units, time.Duration(*seconds)*time.Second)
	} else {
		rep = tracedRun(ctx, units, *state, w.Name, *seed)
	}
	checkRecorded(rep, *state, w.Name, *seed)
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, line)
	}
	for _, f := range rep.failures() {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	attempted, failed := rep.counts()
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one invocation's outcome: every operation attempted, the
// metrics, and human-readable notes.
type report struct {
	ops     []*opResult
	first   []*opResult // the first untraced pass, also among ops
	metrics map[string]metric
	notes   []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) counts() (attempted, failed int) {
	for _, o := range r.ops {
		attempted++
		if o.failed() {
			failed++
		}
	}
	return
}

func (r *report) failures() []string {
	var out []string
	for _, o := range r.ops {
		if o.Err != nil {
			out = append(out, fmt.Sprintf("%s: %v", o.Label, o.Err))
		}
		for _, f := range o.Fails {
			out = append(out, fmt.Sprintf("%s: %s", o.Label, f))
		}
	}
	return out
}

// passOut is one pass over every unit of a workload.
type passOut struct {
	Wall        time.Duration
	Rounds      []roundOut
	Ops         []*opResult
	Flows       int
	RouteBuilds int64
}

// roundOut times one round: its wall time and the part spent setting up.
type roundOut struct{ Wall, Setup time.Duration }

// runPass runs every unit's set-up and operations in order. tr == nil is
// the untraced path, which calls only the public entry points.
func runPass(ctx context.Context, units []unit, tr *Tracer) passOut {
	var p passOut
	start := time.Now()
	var roundStart time.Time
	for _, u := range units {
		if u.Round == len(p.Rounds) {
			p.Rounds = append(p.Rounds, roundOut{})
			roundStart = time.Now()
		}
		round := &p.Rounds[len(p.Rounds)-1]
		tr.SetRun(-1)
		t0 := time.Now()
		sid := tr.Begin("setup " + u.label())
		l, err := setupUnit(ctx, tr, u, tr != nil)
		tr.End(sid)
		round.Setup += time.Since(t0)
		if err != nil {
			for i := 0; i < u.ops(); i++ {
				p.Ops = append(p.Ops, &opResult{Label: u.label(), Err: fmt.Errorf("set-up: %w", err)})
			}
			round.Wall = time.Since(roundStart)
			continue
		}
		first := len(p.Ops)
		for i := 0; i < u.ops(); i++ {
			tr.SetRun(len(p.Ops))
			t := time.Now()
			r := runOp(ctx, tr, l, i)
			r.Dur = time.Since(t)
			p.Ops = append(p.Ops, r)
		}
		p.Flows += l.flows
		b := l.sc.Network.RoutingBuilds()
		p.RouteBuilds += b
		if b != 1 {
			for _, r := range p.Ops[first:] {
				r.fail("route oracle built %d times, want 1", b)
			}
		}
		round.Wall = time.Since(roundStart)
	}
	p.Wall = time.Since(start)
	return p
}

// setupOnly times the set-up of the workload's first round without
// running it.
func setupOnly(ctx context.Context, units []unit) (time.Duration, error) {
	var total time.Duration
	for _, u := range units {
		if u.Round != 0 {
			break
		}
		t0 := time.Now()
		l, err := setupUnit(ctx, nil, u, false)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if l.rig != nil {
			l.rig.abort()
		}
	}
	return total, nil
}

// measure is the untraced run: set-up repetitions, then whole passes while
// they fit in the budget (at least one), then checks outside the timed
// region. wall_s is the median round and setup_s the median round set-up.
func measure(ctx context.Context, units []unit, budget time.Duration) *report {
	rep := &report{}
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		// Start every sample from a collected heap, so a sample does not
		// pay for the garbage of the one before it.
		runtime.GC()
		d, err := setupOnly(ctx, units)
		if err != nil {
			rep.ops = append(rep.ops, &opResult{Label: "set-up", Err: err})
			break
		}
		setups = append(setups, d)
	}

	mstart := time.Now()
	var passes []passOut
	for {
		p := runPass(ctx, units, nil)
		passes = append(passes, p)
		if ctx.Err() != nil || time.Since(mstart)+p.Wall > budget {
			break
		}
	}
	peak := peakRSSMB()

	// Checks outside the timed region.
	base := passes[0]
	for k, p := range passes[1:] {
		for i, o := range p.Ops {
			if o.Digest != base.Ops[i].Digest {
				o.fail("pass %d output differs from pass 1", k+2)
			}
		}
	}
	if len(passes) == 1 {
		repeatFirst(ctx, units, base)
	}
	checkDistAgainstInProcess(ctx, units, base.Ops)
	for _, p := range passes {
		rep.ops = append(rep.ops, p.Ops...)
	}

	var walls, setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, p := range passes {
		for _, r := range p.Rounds {
			walls = append(walls, r.Wall.Seconds())
			setupS = append(setupS, r.Setup.Seconds())
		}
	}
	rep.set("wall_s", median(walls), "s")
	rep.set("setup_s", median(setupS), "s")
	rep.set("peak_rss_mb", peak, "MB")
	rep.first = base.Ops
	setQuality(rep, base.Ops)
	rep.notes = append(rep.notes, fmt.Sprintf("passes %d, rounds per pass %d, ops per pass %d, round walls %v s",
		len(passes), len(base.Rounds), len(base.Ops), walls))
	for k, p := range passes {
		ds := make([]string, len(p.Ops))
		for i, o := range p.Ops {
			ds[i] = fmt.Sprintf("%.3f", o.Dur.Seconds())
		}
		rep.notes = append(rep.notes, fmt.Sprintf("pass %d op walls (s): %s", k+1, strings.Join(ds, " ")))
	}
	return rep
}

// setQuality sets the deterministic end-to-end metrics from one pass:
// modelled application time summed over the main runs, and the share of
// bytes carried between distinct engines.
func setQuality(rep *report, ops []*opResult) {
	var app float64
	var cross, total int64
	for _, o := range ops {
		app += o.AppTime
		cross += o.Cross
		total += o.Total
	}
	rep.set("app_time_s", app, "s")
	rep.set("cross_frac", ratio(float64(cross), float64(total)), "ratio")
}

// meanImbalance averages the paper's imbalance metric over a pass's runs.
func meanImbalance(ops []*opResult) float64 {
	var sum float64
	n := 0
	for _, o := range ops {
		if o.Err == nil {
			sum += o.Imbalance
			n++
		}
	}
	return ratio(sum, float64(n))
}

// repeatFirst re-runs the pass's first operation on a freshly built
// scenario and requires the same output: the in-run determinism check when
// the budget fits only one pass. A distributed first operation is covered
// by its in-process comparison instead.
func repeatFirst(ctx context.Context, units []unit, base passOut) {
	u := units[0]
	if u.Kind == opDist || len(base.Ops) == 0 || base.Ops[0].failed() {
		return
	}
	l, err := setupUnit(ctx, nil, u, false)
	if err != nil {
		base.Ops[0].fail("repeat set-up: %v", err)
		return
	}
	again := runOp(ctx, nil, l, 0)
	switch {
	case again.Err != nil:
		base.Ops[0].fail("repeat: %v", again.Err)
	case again.Digest != base.Ops[0].Digest:
		base.Ops[0].fail("repeat on a fresh scenario gave a different output")
	}
}

// checkDistAgainstInProcess requires every distributed run's canonical
// result to be byte-equal to an in-process Scenario.Run of the same
// scenario, computed here, outside the timed region.
func checkDistAgainstInProcess(ctx context.Context, units []unit, ops []*opResult) {
	i := 0
	for _, u := range units {
		n := u.ops()
		if u.Kind != opDist {
			i += n
			continue
		}
		ref := u
		ref.Kind = opRun
		l, err := setupUnit(ctx, nil, ref, false)
		for j := 0; j < n; j++ {
			o := ops[i+j]
			if o.failed() {
				continue
			}
			if err != nil {
				o.fail("in-process reference set-up: %v", err)
				continue
			}
			want := runOp(ctx, nil, l, j)
			switch {
			case want.Err != nil:
				o.fail("in-process reference: %v", want.Err)
			case want.Digest != o.Digest:
				o.fail("distributed result differs from in-process Scenario.Run")
			}
		}
		i += n
	}
}

// record holds the outputs of a run's first pass, for the next run of the
// same binary on the same workload and seed to compare against.
type record struct {
	Labels  []string `json:"labels"`
	Digests []string `json:"digests"`
}

// checkRecorded compares the first pass's outputs with those an earlier
// run of the same binary recorded for the same workload and seed, and
// records them when there is no such run yet.
func checkRecorded(rep *report, state, workload string, seed int64) {
	exe, err := executableHash()
	if err != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("cross-run check skipped: %v", err))
		return
	}
	var rec record
	for _, o := range rep.first {
		rec.Labels = append(rec.Labels, o.Label)
		rec.Digests = append(rec.Digests, o.Digest)
	}
	path := filepath.Join(state, "det", fmt.Sprintf("%s-%s-%d.json", exe[:16], workload, seed))
	var old record
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &old) == nil && len(old.Digests) == len(rec.Digests) {
		for i, o := range rep.first {
			if !o.failed() && old.Digests[i] != o.Digest {
				o.fail("output differs from an earlier run of the same seed")
			}
		}
		rep.notes = append(rep.notes, "cross-run check: compared with "+path)
		return
	}
	for _, o := range rep.first {
		if o.failed() {
			return // record only a clean run
		}
	}
	b, _ := json.Marshal(rec) // strings only: cannot fail
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("cross-run record not written: %v", err))
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("cross-run record not written: %v", err))
	}
}

func executableHash() (string, error) {
	p, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func machineStamp(commit string) stamp {
	s := stamp{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
