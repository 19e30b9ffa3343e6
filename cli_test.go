package repro

// CLI integration tests: build the command-line tools and drive them end to
// end through their file interfaces. These pin the CLI contracts (flags,
// formats, exit codes) the README documents.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one cmd/ tool into a temp dir and returns its path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func TestCLIPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "partition")
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.metis")
	// A 6-cycle in METIS format.
	content := "6 6\n2 6\n1 3\n2 4\n3 5\n4 6\n5 1\n"
	if err := os.WriteFile(graph, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	partFile := filepath.Join(dir, "out.part")
	_, stderr, err := run(t, bin, "-k", "2", graph, partFile)
	if err != nil {
		t.Fatalf("partition failed: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "edge-cut=2") {
		t.Errorf("expected optimal ring cut report, got: %s", stderr)
	}
	data, err := os.ReadFile(partFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(strings.TrimSpace(string(data)))
	if len(lines) != 6 {
		t.Errorf("partition file has %d entries, want 6", len(lines))
	}
	// Bad input exits nonzero.
	if _, _, err := run(t, bin, "-k", "2", filepath.Join(dir, "missing")); err == nil {
		t.Error("missing input accepted")
	}
	if _, _, err := run(t, bin); err == nil {
		t.Error("no arguments accepted")
	}
}

func TestCLIMassfExportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "massf")
	dir := t.TempDir()
	netfile := filepath.Join(dir, "campus.net")
	if _, stderr, err := run(t, bin, "-export", netfile); err != nil {
		t.Fatalf("export failed: %v\n%s", err, stderr)
	}
	stdout, stderr, err := run(t, bin,
		"-netfile", netfile, "-engines", "2",
		"-app", "GridNPB", "-approach", "TOP", "-duration", "5")
	if err != nil {
		t.Fatalf("run on exported topology failed: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "TOP") || !strings.Contains(stdout, "imbalance") {
		t.Errorf("unexpected output:\n%s", stdout)
	}
	// -netfile without -engines is an error.
	if _, _, err := run(t, bin, "-netfile", netfile, "-duration", "5"); err == nil {
		t.Error("netfile without engines accepted")
	}
}

func TestCLIMassfRecordReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "massf")
	trace := filepath.Join(t.TempDir(), "workload.txt")
	out1, _, err := run(t, bin, "-topology", "Campus", "-app", "GridNPB",
		"-duration", "5", "-approach", "TOP", "-record", trace)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := run(t, bin, "-topology", "Campus", "-replay", trace, "-approach", "TOP")
	if err != nil {
		t.Fatal(err)
	}
	// The metric lines must match exactly (determinism through the file).
	line := func(s string) string {
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "TOP") {
				return strings.Join(strings.Fields(l)[:5], " ") // strip wall time
			}
		}
		return ""
	}
	if line(out1) == "" || line(out1) != line(out2) {
		t.Errorf("record/replay diverged:\n%q\n%q", line(out1), line(out2))
	}
}

func TestCLIMassfObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "massf")
	dir := t.TempDir()
	traceOf := func(name string) ([]byte, string) {
		path := filepath.Join(dir, name)
		stdout, stderr, err := run(t, bin, "-topology", "Campus", "-app", "GridNPB",
			"-duration", "5", "-approach", "TOP", "-stats", "-trace", path)
		if err != nil {
			t.Fatalf("massf -trace failed: %v\n%s", err, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, stdout
	}
	trace1, stdout := traceOf("a.jsonl")
	trace2, _ := traceOf("b.jsonl")
	if len(trace1) == 0 {
		t.Fatal("empty kernel trace")
	}
	if string(trace1) != string(trace2) {
		t.Error("identical runs produced different kernel traces")
	}
	if !strings.Contains(string(trace1), `"type":"run"`) ||
		!strings.Contains(string(trace1), `"type":"window"`) {
		t.Errorf("trace missing run/window records:\n%.200s", trace1)
	}
	if !strings.Contains(stdout, "kernel:") {
		t.Errorf("-stats output missing kernel summary:\n%s", stdout)
	}
}

// TestCLIMassfFlagValidation: contradictory flag combinations are rejected
// up front, before any topology or traffic generation runs.
func TestCLIMassfFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "massf")
	netfile := filepath.Join(t.TempDir(), "c.net")
	if _, stderr, err := run(t, bin, "-export", netfile); err != nil {
		t.Fatalf("export failed: %v\n%s", err, stderr)
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnostic
	}{
		{"netfile-without-engines", []string{"-netfile", netfile}, "-netfile requires -engines"},
		{"engines-without-netfile", []string{"-engines", "4"}, "-engines only applies"},
		{"record-plus-replay", []string{"-record", "a", "-replay", "b"}, "would only copy"},
		{"export-plus-stats", []string{"-export", netfile, "-stats"}, "needs an emulation run"},
		{"topostats-plus-matrix", []string{"-topostats", "-matrix-out", "m.json"}, "needs an emulation run"},
		{"metrics-pprof-clash", []string{"-metrics", "localhost:0", "-pprof", "localhost:0"}, "distinct addresses"},
		{"bad-approach", []string{"-approach", "BOGUS"}, "-approach must be"},
		{"bad-duration", []string{"-duration", "0"}, "-duration must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, err := run(t, bin, tc.args...)
			if err == nil {
				t.Fatalf("massf %v succeeded, want validation error", tc.args)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}

// TestCLIMassfTrafficMatrix: -matrix-out writes the run's traffic matrix
// snapshot as JSON, deterministically, and the summary line reports the
// traffic plane.
func TestCLIMassfTrafficMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "massf")
	dir := t.TempDir()
	matrixOf := func(name string) ([]byte, string) {
		path := filepath.Join(dir, name)
		stdout, stderr, err := run(t, bin, "-topology", "Campus", "-app", "GridNPB",
			"-duration", "5", "-approach", "TOP", "-matrix-out", path)
		if err != nil {
			t.Fatalf("massf -matrix-out failed: %v\n%s", err, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, stdout
	}
	m1, stdout := matrixOf("a.json")
	m2, _ := matrixOf("b.json")
	if string(m1) != string(m2) {
		t.Error("identical runs produced different traffic matrices")
	}
	for _, want := range []string{`"matrixBytes"`, `"crossEngineBytes"`, `"timeline"`} {
		if !strings.Contains(string(m1), want) {
			t.Errorf("matrix JSON missing %s:\n%.300s", want, m1)
		}
	}
	if !strings.Contains(stdout, "cross-engine") {
		t.Errorf("run summary missing traffic line:\n%s", stdout)
	}
	// -approach all suffixes per approach.
	path := filepath.Join(dir, "all.json")
	if _, stderr, err := run(t, bin, "-topology", "Campus", "-app", "GridNPB",
		"-duration", "5", "-approach", "all", "-matrix-out", path); err != nil {
		t.Fatalf("massf -approach all -matrix-out failed: %v\n%s", err, stderr)
	}
	for _, a := range []string{"TOP", "PLACE", "PROFILE"} {
		if _, err := os.Stat(path + "." + a); err != nil {
			t.Errorf("missing per-approach matrix %s.%s: %v", path, a, err)
		}
	}
}

func TestCLINetflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "netflow")
	dump := filepath.Join(t.TempDir(), "d.flows")
	content := "# node flow src dst inlink packets bytes first last\n" +
		"0 0 0 3 -1 7 10500 0.5 0.5\n" +
		"1 0 0 3 2 7 10500 0.7 0.7\n"
	if err := os.WriteFile(dump, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := run(t, bin, dump)
	if err != nil {
		t.Fatalf("netflow failed: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "records: 2") || !strings.Contains(stdout, "kernel events: 14") {
		t.Errorf("unexpected output:\n%s", stdout)
	}
}
