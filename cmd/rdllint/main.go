// Command rdllint runs the routing stack's domain-specific static
// analyzers (internal/lint) over every non-test package of the module:
//
//	rdllint            # lint the module containing the working directory
//	rdllint -C dir     # lint the module containing dir
//	rdllint -list      # print the analyzers, their scopes, and exit
//	rdllint -json      # emit findings as a JSON array instead of text
//
// Findings print one per line as file:line:col: analyzer: message, with
// paths relative to the module root. With -json they print as one JSON
// array of {file, line, col, analyzer, message} objects in the same
// stable order. Exit codes: 0 clean, 1 findings, 2 usage or load failure
// (parse error, type error, no module).
//
// Suppressions: a finding is acknowledged in the source with
// `//rdl:allow <analyzer> <reason>` on the flagged line or the line
// above. Allows without reasons and allows that no longer suppress
// anything are themselves findings, so the exception inventory stays
// honest. See doc/LINT.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rdlroute/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable shape of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdllint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "lint the module containing this directory")
	list := fs.Bool("list", false, "print the analyzers and their scopes, then exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			scope := "all packages"
			if a.Scope != nil {
				scope = strings.Join(a.Scope, ", ")
			}
			fmt.Fprintf(stdout, "%-8s  [%s]\n          %s\n", a.Name, scope, a.Doc)
		}
		return 0
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings := mod.Lint(analyzers)
	if *asJSON {
		enc := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			enc = append(enc, jsonFinding{
				File:     relTo(root, f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		out, err := json.MarshalIndent(enc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relTo(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "rdllint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relTo renders a finding path relative to the module root, falling back
// to the absolute path when it does not share the root.
func relTo(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return path
	}
	return rel
}
