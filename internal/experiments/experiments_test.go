package experiments

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/obs"
)

// testCfg uses the calibrated default duration (120 virtual seconds).
func testCfg() Config { return Config{Duration: 120, Seed: 42} }

// Suites are expensive; share them across shape tests.
var (
	suiteOnce sync.Once
	scaSuite  *Suite
	npbSuite  *Suite
	suiteErr  error
)

func suites(t *testing.T) (*Suite, *Suite) {
	t.Helper()
	suiteOnce.Do(func() {
		scaSuite, suiteErr = RunSuite("ScaLapack", testCfg())
		if suiteErr != nil {
			return
		}
		npbSuite, suiteErr = RunSuite("GridNPB", testCfg())
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return scaSuite, npbSuite
}

func TestTable1MatchesPaper(t *testing.T) {
	out, err := Table1(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Campus", "TeraGrid", "Brite", "20", "27", "160", "150", "364"} {
		if want == "364" {
			continue // Table 2 config, not in Table 1
		}
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteComplete(t *testing.T) {
	sca, npb := suites(t)
	for _, s := range []*Suite{sca, npb} {
		if len(s.Cells) != 9 {
			t.Fatalf("%s suite has %d cells, want 9", s.App, len(s.Cells))
		}
		for _, topo := range []string{"Campus", "TeraGrid", "Brite"} {
			for _, a := range mapping.Approaches() {
				if _, ok := s.Get(topo, a); !ok {
					t.Errorf("%s: missing cell %s/%s", s.App, topo, a)
				}
			}
		}
	}
}

// TestFig4Fig5Shape asserts the paper's headline imbalance ordering on every
// topology for both applications: PROFILE < TOP and PLACE < TOP, with
// PROFILE the overall best, and a substantial (>=40%) PROFILE improvement.
func TestFig4Fig5Shape(t *testing.T) {
	sca, npb := suites(t)
	for _, s := range []*Suite{sca, npb} {
		for _, topo := range []string{"Campus", "TeraGrid", "Brite"} {
			top, _ := s.Get(topo, mapping.Top)
			place, _ := s.Get(topo, mapping.Place)
			prof, _ := s.Get(topo, mapping.Profile)
			if prof.Imbalance >= top.Imbalance {
				t.Errorf("%s/%s: PROFILE %.3f >= TOP %.3f", s.App, topo, prof.Imbalance, top.Imbalance)
			}
			// PLACE should not be meaningfully worse than TOP. On Campus —
			// only 3 engines and 60 nodes — the TOP-vs-PLACE difference is
			// within seed noise, so the band is wider there.
			placeTol := 1.10
			if topo == "Campus" {
				placeTol = 1.30
			}
			if place.Imbalance >= top.Imbalance*placeTol {
				t.Errorf("%s/%s: PLACE %.3f much worse than TOP %.3f", s.App, topo, place.Imbalance, top.Imbalance)
			}
			if prof.Imbalance > place.Imbalance*1.25 {
				t.Errorf("%s/%s: PROFILE %.3f clearly worse than PLACE %.3f", s.App, topo, prof.Imbalance, place.Imbalance)
			}
			if imp := 1 - prof.Imbalance/top.Imbalance; imp < 0.40 {
				t.Errorf("%s/%s: PROFILE improvement only %.0f%%, want >= 40%%", s.App, topo, imp*100)
			}
		}
	}
}

// TestImbalanceGrowsWithScale asserts §4.2.1's scaling observation: TOP's
// imbalance increases with the engine count (Campus 3 < TeraGrid 5 < Brite 8).
func TestImbalanceGrowsWithScale(t *testing.T) {
	sca, _ := suites(t)
	campus, _ := sca.Get("Campus", mapping.Top)
	tera, _ := sca.Get("TeraGrid", mapping.Top)
	brite, _ := sca.Get("Brite", mapping.Top)
	if !(campus.Imbalance < tera.Imbalance && tera.Imbalance < brite.Imbalance) {
		t.Errorf("TOP imbalance not increasing with scale: %.3f, %.3f, %.3f",
			campus.Imbalance, tera.Imbalance, brite.Imbalance)
	}
}

// TestFig6Fig7Shape asserts the emulation-time claims: PROFILE never slower
// than TOP beyond noise, with a real improvement on the large irregular
// topology; GridNPB's app-time gain smaller than its replay gain
// (computation-bound, §4.2.2).
func TestFig6Fig7Shape(t *testing.T) {
	sca, npb := suites(t)
	for _, s := range []*Suite{sca, npb} {
		for _, topo := range []string{"Campus", "TeraGrid", "Brite"} {
			top, _ := s.Get(topo, mapping.Top)
			prof, _ := s.Get(topo, mapping.Profile)
			if prof.AppTime > top.AppTime*1.05 {
				t.Errorf("%s/%s: PROFILE app time %.1f worse than TOP %.1f", s.App, topo, prof.AppTime, top.AppTime)
			}
		}
		top, _ := s.Get("Brite", mapping.Top)
		prof, _ := s.Get("Brite", mapping.Profile)
		// The paper's app-time gains are large for ScaLapack (§4.2.2,
		// up to 50%) but small for the computation-bound GridNPB (~17%);
		// require correspondingly different floors.
		want := 0.10
		if s.App == "GridNPB" {
			want = 0.03
		}
		if imp := 1 - prof.AppTime/top.AppTime; imp < want {
			t.Errorf("%s/Brite: app-time improvement only %.0f%%, want >= %.0f%%", s.App, imp*100, want*100)
		}
	}
	// GridNPB: relative replay improvement exceeds relative app-time
	// improvement on Campus (compute-bound app, Figure 7 vs Figure 10).
	top, _ := npb.Get("Campus", mapping.Top)
	prof, _ := npb.Get("Campus", mapping.Profile)
	appImp := 1 - prof.AppTime/top.AppTime
	netImp := 1 - prof.NetTime/top.NetTime
	if netImp < appImp-0.02 {
		t.Errorf("GridNPB/Campus: replay improvement %.0f%% < app improvement %.0f%%", netImp*100, appImp*100)
	}
}

// TestFig9Fig10Shape asserts replay (isolated network emulation) improves
// with PROFILE on every topology.
func TestFig9Fig10Shape(t *testing.T) {
	sca, npb := suites(t)
	for _, s := range []*Suite{sca, npb} {
		for _, topo := range []string{"Campus", "TeraGrid", "Brite"} {
			top, _ := s.Get(topo, mapping.Top)
			prof, _ := s.Get(topo, mapping.Profile)
			if prof.NetTime > top.NetTime*1.02 {
				t.Errorf("%s/%s: PROFILE replay %.1f not better than TOP %.1f", s.App, topo, prof.NetTime, top.NetTime)
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	_, npb := suites(t)
	f, err := Fig8(npb)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Top) == 0 || len(f.Profile) == 0 {
		t.Fatal("empty fine-grained series")
	}
	// Paper: PROFILE's fine-grained imbalance is clearly below TOP's.
	mt, mp := meanActive(f.Top), meanActive(f.Profile)
	if mp >= mt {
		t.Errorf("fine-grained mean imbalance: PROFILE %.3f >= TOP %.3f", mp, mt)
	}
	if f.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig2HasVariation(t *testing.T) {
	s, err := Fig2(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	totals := s.TotalPerBucket()
	// The load curve must actually vary (bursty workflow application).
	var mn, mx float64
	first := true
	for _, v := range totals {
		if v == 0 {
			continue
		}
		if first || v < mn {
			mn = v
		}
		if first || v > mx {
			mx = v
		}
		first = false
	}
	if first || mx < 2*mn {
		t.Errorf("load variation too flat: min %.0f max %.0f", mn, mx)
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Paper's ordering: TOP worst on both metrics, PROFILE best imbalance.
	if !(rows[0].Imbalance > rows[1].Imbalance && rows[1].Imbalance > rows[2].Imbalance) {
		t.Errorf("Table 2 imbalance ordering violated: %.3f / %.3f / %.3f",
			rows[0].Imbalance, rows[1].Imbalance, rows[2].Imbalance)
	}
	if rows[2].AppTime > rows[0].AppTime {
		t.Errorf("Table 2: PROFILE time %.1f worse than TOP %.1f", rows[2].AppTime, rows[0].AppTime)
	}
	if out := RenderTable2(rows); !strings.Contains(out, "ScaLapack") {
		t.Error("Table 2 render missing header")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Duration != 120 || c.Seed == 0 {
		t.Errorf("defaults wrong: %+v", c)
	}
	full := Config{Full: true}.withDefaults()
	if full.durationFor("ScaLapack") != 600 || full.durationFor("GridNPB") != 900 {
		t.Error("full durations wrong")
	}
}

func TestBaselinesShape(t *testing.T) {
	rows, err := Baselines(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	get := func(a mapping.Approach) float64 {
		for _, r := range rows {
			if r.Approach == a {
				return r.Imbalance
			}
		}
		t.Fatalf("missing %s", a)
		return 0
	}
	// The paper's §5 claim: the traffic-informed approaches beat the
	// traffic-blind baselines; PROFILE beats everything.
	prof := get(mapping.Profile)
	for _, a := range mapping.BaselineApproaches() {
		if prof >= get(a) {
			t.Errorf("PROFILE %.3f not better than baseline %s %.3f", prof, a, get(a))
		}
	}
	if out := RenderBaselines(rows); out == "" {
		t.Error("empty render")
	}
}

func TestAllAndMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in short mode")
	}
	report, err := All(Config{Duration: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	md := report.Markdown()
	for _, want := range []string{
		"# EXPERIMENTS",
		"Table 1", "Figure 2", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Table 2",
		"baseline comparison",
		"Traffic-plane telemetry", "Cross-Engine Traffic",
		"TOP", "PLACE", "PROFILE", "KCLUSTER", "HIER",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if report.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestRenderers(t *testing.T) {
	sca, _ := suites(t)
	for _, out := range []string{FigImbalance(sca), FigAppTime(sca), FigNetTime(sca)} {
		if !strings.Contains(out, "Campus") || !strings.Contains(out, "PROFILE") {
			t.Errorf("renderer output incomplete:\n%s", out)
		}
	}
}

// TestSuiteTrafficTelemetry: every suite cell carries the traffic plane's
// measured volumes and per-window timeline, and the renders include them.
func TestSuiteTrafficTelemetry(t *testing.T) {
	sca, npb := suites(t)
	for _, s := range []*Suite{sca, npb} {
		for _, c := range s.Cells {
			if c.TotalBytes <= 0 {
				t.Errorf("%s/%s/%s: no transmitted bytes measured", s.App, c.Topology, c.Approach)
			}
			if c.CrossEngineBytes <= 0 {
				t.Errorf("%s/%s/%s: no cross-engine bytes measured", s.App, c.Topology, c.Approach)
			}
			if f := c.CrossFraction(); f <= 0 || f >= 1 {
				t.Errorf("%s/%s/%s: cross fraction %.3f outside (0,1)", s.App, c.Topology, c.Approach, f)
			}
			key := c.Topology + "/" + string(c.Approach)
			if len(s.Timelines[key]) == 0 {
				t.Errorf("%s/%s: no traffic timeline", s.App, key)
			}
		}
	}
	if out := FigCrossTraffic(sca); !strings.Contains(out, "Cross-Engine Traffic") ||
		!strings.Contains(out, "Campus") {
		t.Errorf("FigCrossTraffic incomplete:\n%s", out)
	}
	tl, err := FigTrafficTimeline(npb, "Campus")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl, "PROF imbal") || !strings.Contains(tl, "TOP xMB") {
		t.Errorf("FigTrafficTimeline incomplete:\n%s", tl)
	}
	if _, err := FigTrafficTimeline(&Suite{App: "x"}, "Campus"); err == nil {
		t.Error("timeline render of an empty suite did not fail")
	}
}

func TestScenarioForErrors(t *testing.T) {
	if _, err := ScenarioFor(testCfg(), "Atlantis", "ScaLapack"); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := ScenarioFor(testCfg(), "Campus", "Doom"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCSV(dir, sampleReport()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv",
		"fig8.csv", "fig9.csv", "fig10.csv", "table2.csv", "baselines.csv"} {
		data, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s empty", name)
		}
	}
	// fig2.csv intentionally absent (nil in the sample report).
	if _, err := os.Stat(dir + "/fig2.csv"); err == nil {
		t.Error("fig2.csv written despite nil series")
	}
	// Spot-check content.
	data, _ := os.ReadFile(dir + "/table2.csv")
	if !strings.Contains(string(data), "PROFILE") || !strings.Contains(string(data), "460") {
		t.Errorf("table2.csv content wrong:\n%s", data)
	}
}

func TestBars(t *testing.T) {
	out := Bars("demo", []string{"a", "bb"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "bb") {
		t.Errorf("bars output:\n%s", out)
	}
	// The max value gets the full width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.Contains(lines[2], strings.Repeat("█", 10)) {
		t.Errorf("max bar not full width:\n%s", out)
	}
	// Zero values and empty title are fine.
	if Bars("", []string{"x"}, []float64{0}, 0) == "" {
		t.Error("empty render")
	}
}

func TestSuiteBars(t *testing.T) {
	sca, _ := suites(t)
	out := SuiteBars(sca, "Figure 4", func(c Cell) float64 { return c.Imbalance })
	for _, want := range []string{"Figure 4", "Campus/TOP", "Brite/PROFILE"} {
		if !strings.Contains(out, want) {
			t.Errorf("SuiteBars missing %q:\n%s", want, out)
		}
	}
}

func TestFig3(t *testing.T) {
	out := Fig3()
	for _, want := range []string{"SDSC", "NCSA", "ANL", "CIT", "PSC", "40 Gb/s", "hub"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 missing %q:\n%s", want, out)
		}
	}
}

// TestRunSuiteParallelTraceMatchesSerial is the determinism regression for
// the suite-level fan-out: a RunSuite executed with concurrent topology
// cells must produce, for every cell, an obs JSONL trace byte-identical to
// the serial run's — and identical headline cells. GOMAXPROCS is raised so
// the fan-out really runs concurrently even on single-CPU machines.
func TestRunSuiteParallelTraceMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(serial bool) (*Suite, map[string]string) {
		var mu sync.Mutex
		bufs := make(map[string]*bytes.Buffer)
		traces := make(map[string]*obs.Trace)
		cfg := Config{Duration: 20, Seed: 42, SerialSuite: serial}
		cfg.CellRecorder = func(topology string) obs.Recorder {
			mu.Lock()
			defer mu.Unlock()
			b := &bytes.Buffer{}
			tr := obs.NewTrace(b)
			bufs[topology] = b
			traces[topology] = tr
			return tr
		}
		s, err := RunSuite("ScaLapack", cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(bufs))
		for topo, tr := range traces {
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			out[topo] = bufs[topo].String()
		}
		return s, out
	}
	parSuite, parTraces := run(false)
	serSuite, serTraces := run(true)
	if len(parTraces) != 3 || len(serTraces) != 3 {
		t.Fatalf("got %d parallel / %d serial cell traces, want 3 each", len(parTraces), len(serTraces))
	}
	for topo, ser := range serTraces {
		if ser == "" {
			t.Fatalf("%s: empty serial trace", topo)
		}
		if parTraces[topo] != ser {
			t.Errorf("%s: parallel fan-out trace differs from serial run", topo)
		}
	}
	if len(parSuite.Cells) != len(serSuite.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(parSuite.Cells), len(serSuite.Cells))
	}
	for i := range serSuite.Cells {
		p, s := parSuite.Cells[i], serSuite.Cells[i]
		if p != s {
			t.Errorf("cell %d differs under parallel fan-out:\n  parallel: %+v\n  serial:   %+v", i, p, s)
		}
	}
}

// TestCrossFractionZeroTraffic: a cell that moved no bytes (an idle or
// truncated run) must report a 0 cross-engine fraction, not NaN — NaN here
// poisons grid renders and any mean over cells.
func TestCrossFractionZeroTraffic(t *testing.T) {
	c := Cell{CrossEngineBytes: 0, TotalBytes: 0}
	f := c.CrossFraction()
	if math.IsNaN(f) {
		t.Fatal("zero-traffic cell produced NaN")
	}
	if f != 0 {
		t.Fatalf("zero-traffic CrossFraction = %g, want 0", f)
	}
	// Sanity on the normal path.
	c = Cell{CrossEngineBytes: 25, TotalBytes: 100}
	if got := c.CrossFraction(); got != 0.25 {
		t.Fatalf("CrossFraction = %g, want 0.25", got)
	}
}
