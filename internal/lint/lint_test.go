package lint

import (
	"strings"
	"testing"
)

// TestSuppression: justified //lopc:allow comments silence findings on
// their line or the line below; reasonless or unknown allows are
// themselves findings.
func TestSuppression(t *testing.T) {
	l, pkg := loadFixture(t, "suppress")
	diags := Run(l, []*Package{pkg}, []Analyzer{&FloatEq{}})

	var allowDiags, floateqDiags []Diagnostic
	for _, d := range diags {
		switch d.Check {
		case "allow":
			allowDiags = append(allowDiags, d)
		case "floateq":
			floateqDiags = append(floateqDiags, d)
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d)
		}
	}
	// Eq, EqAbove and Bare are suppressed; Unknown's allow names a
	// check that does not exist, so its floateq finding survives.
	if len(floateqDiags) != 1 {
		t.Errorf("got %d floateq findings, want 1 (Unknown's): %v", len(floateqDiags), floateqDiags)
	}
	// Bare (no reason) and Unknown (bogus check) are reported.
	if len(allowDiags) != 2 {
		t.Fatalf("got %d allow findings, want 2: %v", len(allowDiags), allowDiags)
	}
	var sawNoReason, sawUnknown bool
	for _, d := range allowDiags {
		if strings.Contains(d.Message, "no reason") {
			sawNoReason = true
		}
		if strings.Contains(d.Message, "unknown check") {
			sawUnknown = true
		}
	}
	if !sawNoReason || !sawUnknown {
		t.Errorf("allow findings missing no-reason or unknown-check report: %v", allowDiags)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "floateq", Message: "m"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 7
	if got, want := d.String(), "a/b.go:7:floateq: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestStaleAllowDetection pins RunWithStale's dead-suppression
// reporting: an allow whose check ran but suppressed nothing is
// reported; the same allow is NOT reported when its check did not run.
func TestStaleAllowDetection(t *testing.T) {
	l, pkg := loadFixture(t, "stale")
	// floateq runs and the allow on a clean line suppresses nothing.
	diags, stale := RunWithStale(l, []*Package{pkg}, []Analyzer{&FloatEq{}})
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if len(stale) != 1 {
		t.Fatalf("want exactly one stale allow, got %d: %v", len(stale), stale)
	}
	if stale[0].Check != "floateq" {
		t.Errorf("stale allow names check %q, want floateq", stale[0].Check)
	}
	// The same package under an analyzer set that does not include
	// floateq: the allow is out of scope, not stale.
	_, stale = RunWithStale(l, []*Package{pkg}, []Analyzer{&ErrDiscard{}})
	if len(stale) != 0 {
		t.Errorf("allow for a check that did not run reported stale: %v", stale)
	}
	// An allow that does suppress a finding is never stale.
	_, stale = RunWithStale(l, []*Package{pkg}, []Analyzer{&ClockSeam{}})
	if len(stale) != 0 {
		t.Errorf("exercised allow reported stale: %v", stale)
	}
}
