package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestGoldenOutput pins the exact file:line:check: message output of the
// driver on the fixture module, so the diagnostic format and the
// analyzer behaviour visible to CI cannot drift silently.
func TestGoldenOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
	}
}

// TestGoldenJSON pins the -format json rendering of the same findings:
// a sorted array of {file, line, column, check, message} objects.
func TestGoldenJSON(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "json", "./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
	}
	var parsed []finding
	if err := json.Unmarshal(stdout.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(parsed) == 0 {
		t.Fatal("JSON output decoded to zero findings")
	}
}

// TestGoldenGitHub pins the -format github rendering: one ::error
// workflow command per finding so Actions annotates the diff.
func TestGoldenGitHub(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_github.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "github", "./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
	}
}

// TestGoldenSARIF pins the -format sarif rendering byte-for-byte and
// validates the SARIF 2.1.0 shape: schema URI, version, one run with
// one rule per analyzer (plus the allow pseudo-check) and one result
// per finding, each carrying a physical location under %SRCROOT%.
func TestGoldenSARIF(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.sarif"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "sarif", "./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
	}
	var log sarifLog
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Schema != sarifSchema || log.Version != "2.1.0" {
		t.Errorf("schema/version = %q/%q, want %q/2.1.0", log.Schema, log.Version, sarifSchema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "lopc-lint" {
		t.Errorf("driver name = %q, want lopc-lint", r.Tool.Driver.Name)
	}
	if want := len(lint.All()) + 1; len(r.Tool.Driver.Rules) != want {
		t.Errorf("got %d rules, want %d (suite + allow)", len(r.Tool.Driver.Rules), want)
	}
	if len(r.Results) == 0 {
		t.Fatal("SARIF run has zero results")
	}
	for i, res := range r.Results {
		if res.RuleID != r.Tool.Driver.Rules[res.RuleIndex].ID {
			t.Errorf("result %d: ruleIndex %d resolves to %q, not ruleId %q",
				i, res.RuleIndex, r.Tool.Driver.Rules[res.RuleIndex].ID, res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Errorf("result %d: got %d locations, want 1", i, len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" || loc.ArtifactLocation.URI == "" || loc.Region.StartLine == 0 {
			t.Errorf("result %d: incomplete physical location %+v", i, loc)
		}
	}
}

// TestStrictAllows: -strict-allows turns the fixture's deliberately
// dead suppression into an exit-1 failure and names it on stderr, even
// when the selected checks report no findings.
func TestStrictAllows(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-strict-allows", "-checks", "floateq", "./internal/machine"},
		filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no findings on stdout, got:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "stale allow") || !strings.Contains(stderr.String(), "internal/machine/machine.go:29") {
		t.Errorf("stderr does not name the stale allow:\n%s", stderr.String())
	}
	// Without the flag the same run is clean: stale allows are advisory
	// by default.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-checks", "floateq", "./internal/machine"},
		filepath.Join("testdata", "fixturemod"), &stdout, &stderr); code != 0 {
		t.Fatalf("without -strict-allows: exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
}

// TestBadFormat: an unknown -format is a usage error (exit 2), before
// any packages load.
func TestBadFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "xml", "./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown format") {
		t.Errorf("stderr %q does not name the bad format", stderr.String())
	}
}

// TestOutputDeterministic runs the driver repeatedly — including under
// a different GOMAXPROCS — and requires byte-identical output: finding
// order may never depend on map iteration or scheduling.
func TestOutputDeterministic(t *testing.T) {
	runOnce := func() string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
		if code != 1 {
			t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
		}
		return stdout.String()
	}
	first := runOnce()
	second := runOnce()
	if first != second {
		t.Errorf("two identical runs differ\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial := runOnce()
	if first != serial {
		t.Errorf("output differs under GOMAXPROCS=1\n--- parallel ---\n%s--- serial ---\n%s", first, serial)
	}
}

// TestChecksSubset: -checks restricts the run to the named analyzers,
// so only their findings appear.
func TestChecksSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-checks", "floateq,rngseam", "./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d findings, want 3:\n%s", len(lines), stdout.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, ":floateq:") && !strings.Contains(line, ":rngseam:") {
			t.Errorf("finding from an unselected check leaked through: %s", line)
		}
	}
}

// TestChecksUnknown: an unrecognized -checks name is a usage error
// (exit 2) naming the bad check, before any packages load.
func TestChecksUnknown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-checks", "floateq,nosuchcheck", "./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nosuchcheck") {
		t.Errorf("stderr %q does not name the unknown check", stderr.String())
	}
}

// TestReportAllowsGolden pins the -report-allows inventory: every
// //lopc:allow in the fixture module with its file, line, check and
// audited reason, and exit 0 regardless of findings.
func TestReportAllowsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_allows.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-report-allows", "./..."}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
	}
}

// TestBadPattern checks that a pattern outside the module is a load
// error (exit 2), distinct from findings (exit 1).
func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"example.com/other"}, filepath.Join("testdata", "fixturemod"), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr.String())
	}
}
