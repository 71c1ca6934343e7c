// Command lopc-lint runs the repository's static-analysis suite
// (internal/lint) over the module: clock and rng seam, float-safety,
// error and lock invariants the compiler cannot check.
//
// Usage:
//
//	lopc-lint [-format text|json|github|sarif] [-checks a,b] [-j n] [-strict-allows] [-list] [-report-allows] [patterns...]
//
// Patterns default to ./... (every package of the enclosing module,
// skipping testdata). With the default text format findings print one
// per line as
//
//	file:line:check: message
//
// with file paths relative to the module root; -format json emits a
// JSON array of findings, -format github emits ::error workflow
// annotations for GitHub Actions, and -format sarif emits a SARIF
// 2.1.0 log for code-scanning upload. The exit status is 0
// when the module is clean, 1 when there are findings, and 2 on usage
// or load errors. Individual findings are suppressed with a justified
//
//	//lopc:allow <check> <reason>
//
// comment on the flagged line or the line above it.
//
// -checks restricts the run to a comma-separated subset of analyzers
// (unknown names are a usage error). -j sets how many packages are
// analyzed concurrently (0 means GOMAXPROCS); output is byte-identical
// at every job count. -strict-allows reports every //lopc:allow whose
// check ran but suppressed nothing — a dead suppression that would
// silently swallow a future regression — and exits 1 when any exist.
// -report-allows prints every //lopc:allow suppression in the analyzed
// packages with its audited reason instead of running the analyzers,
// so the full suppression inventory is reviewable per PR; stale
// suppressions (per a full-suite run) are marked STALE.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lopc-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output `format`: text, json, github, or sarif")
	checks := fs.String("checks", "", "comma-separated `subset` of checks to run (default: all)")
	jobs := fs.Int("j", 0, "analyze `n` packages concurrently (0 = GOMAXPROCS); output is identical at any value")
	strictAllows := fs.Bool("strict-allows", false, "report stale //lopc:allow suppressions and exit 1 when any exist")
	list := fs.Bool("list", false, "list the analyzers and exit")
	reportAllows := fs.Bool("report-allows", false, "print every //lopc:allow suppression with its reason and exit")
	ver := version.AddFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ver {
		fmt.Fprintln(stdout, version.String("lopc-lint"))
		return 0
	}
	if *format != "text" && *format != "json" && *format != "github" && *format != "sarif" {
		fmt.Fprintf(stderr, "lopc-lint: unknown format %q (want text, json, github, or sarif)\n", *format)
		return 2
	}
	analyzers := lint.All()
	if *checks != "" {
		var names []string
		for _, n := range strings.Split(*checks, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		var err error
		if analyzers, err = lint.ByNames(names); err != nil {
			fmt.Fprintln(stderr, "lopc-lint:", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	l, err := lint.NewLoader(dir)
	if err != nil {
		fmt.Fprintln(stderr, "lopc-lint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := l.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "lopc-lint:", err)
		return 2
	}

	if *reportAllows {
		records := lint.AllowRecords(l, pkgs)
		// Staleness is judged against the full suite regardless of
		// -checks: an allow is dead only if the check it names found
		// nothing to suppress when actually run.
		_, staleRecs := lint.RunParallel(l, pkgs, lint.All(), *jobs)
		staleSet := make(map[lint.AllowRecord]bool, len(staleRecs))
		for _, r := range staleRecs {
			staleSet[r] = true
		}
		for _, r := range records {
			mark := ""
			if staleSet[r] {
				mark = " STALE"
			}
			fmt.Fprintf(stdout, "%s:%d: %s: %s%s\n", r.File, r.Line, r.Check, r.Reason, mark)
		}
		fmt.Fprintf(stderr, "lopc-lint: %d suppression(s) (%d stale) in %d package(s)\n",
			len(records), len(staleRecs), len(pkgs))
		if *strictAllows && len(staleRecs) > 0 {
			return 1
		}
		return 0
	}

	diags, stale := lint.RunParallel(l, pkgs, analyzers, *jobs)
	if err := emit(stdout, *format, l, diags); err != nil {
		fmt.Fprintln(stderr, "lopc-lint:", err)
		return 2
	}
	if *strictAllows {
		for _, r := range stale {
			fmt.Fprintf(stderr, "lopc-lint: stale allow: %s:%d: //lopc:allow %s suppresses nothing; delete it\n",
				r.File, r.Line, r.Check)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lopc-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	if *strictAllows && len(stale) > 0 {
		return 1
	}
	return 0
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// emit renders the findings in the selected format. Findings arrive
// sorted by file/line/check/message from lint.Run, so every format is
// byte-deterministic.
func emit(w io.Writer, format string, l *lint.Loader, diags []lint.Diagnostic) error {
	switch format {
	case "sarif":
		return emitSARIF(w, l, diags)
	case "json":
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File:    l.RelPath(d.Pos.Filename),
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Check:   d.Check,
				Message: d.Message,
			})
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", data)
		return err
	case "github":
		for _, d := range diags {
			_, err := fmt.Fprintf(w, "::error file=%s,line=%d::%s: %s\n",
				actionsEscapeProp(l.RelPath(d.Pos.Filename)), d.Pos.Line,
				d.Check, actionsEscapeData(d.Message))
			if err != nil {
				return err
			}
		}
		return nil
	default: // text
		for _, d := range diags {
			_, err := fmt.Fprintf(w, "%s:%d:%s: %s\n", l.RelPath(d.Pos.Filename), d.Pos.Line, d.Check, d.Message)
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// actionsEscapeData escapes a workflow-command message per the GitHub
// Actions toolkit rules.
func actionsEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// actionsEscapeProp escapes a workflow-command property value, which
// additionally reserves ':' and ','.
func actionsEscapeProp(s string) string {
	s = actionsEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
