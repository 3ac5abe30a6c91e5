package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the repository root relative to this package.
const repoRoot = "../.."

var (
	// A quoted command: `ulba <subcommand>` after a path, a backtick, a
	// quote or a blank, up to the end of the code span, a pipe, a shell
	// comment or the end of the line.
	docCommand = regexp.MustCompile("(?:^|[\\s`/\"(])ulba ([a-z][a-z0-9-]*)([^`|#\\n]*)")
	// The paper-driver binaries `ulba` replaced.
	retiredBinary = regexp.MustCompile(`ulba-(?:model|synth|erosion|experiments|runtime|assess)\b`)
)

// repoFiles walks the repository, skipping .git and the benchmark's build
// directory. docs are the guides that quote ulba commands: the four
// top-level ones and the Markdown notes kept in dot-directories (the change
// log and the roadmap quote retired commands as history and are not among
// them). sources are the Go files and the CI workflows.
func repoFiles(t *testing.T) (docs, sources []string) {
	t.Helper()
	docs = []string{"README.md", "REPRODUCE.md", "DESIGN.md", "API.md"}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(repoRoot, path)
		if err != nil || d.IsDir() {
			return err
		}
		dotDir := strings.HasPrefix(rel, ".") && strings.ContainsRune(rel, filepath.Separator)
		switch ext := filepath.Ext(rel); {
		case dotDir && ext == ".md":
			docs = append(docs, rel)
		case ext == ".go", dotDir && ext == ".yml":
			sources = append(sources, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return docs, sources
}

// TestDocsCommandsMatchFlags reads every `ulba <subcommand> ...` command
// quoted in the docs and fails on an unknown subcommand or flag.
func TestDocsCommandsMatchFlags(t *testing.T) {
	flags := subcommandFlags()
	seen := map[string]int{}
	docs, _ := repoFiles(t)
	for _, doc := range docs {
		b, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(b), "\\\n", " ") // join continued shell lines
		for _, m := range docCommand.FindAllStringSubmatch(text, -1) {
			sub, rest := m[1], m[2]
			known, ok := flags[sub]
			if !ok {
				t.Errorf("%s: `ulba %s%s`: unknown subcommand", doc, sub, rest)
				continue
			}
			seen[sub]++
			for _, tok := range strings.Fields(rest) {
				if !strings.HasPrefix(tok, "-") {
					continue // a flag value, a redirection or an argument
				}
				if _, err := strconv.ParseFloat(tok, 64); err == nil {
					continue // a negative flag value
				}
				name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
				if !known[name] {
					t.Errorf("%s: `ulba %s%s`: %s has no flag -%s", doc, sub, rest, sub, name)
				}
			}
		}
	}
	for _, c := range commands {
		if seen[c.name] == 0 {
			t.Errorf("no document quotes an `ulba %s` command", c.name)
		}
	}
}

// TestNoRetiredBinaryNames fails on any mention of the retired per-driver
// binaries in the docs, the CI workflows or the Go sources; the change log
// and the roadmap keep them as history.
func TestNoRetiredBinaryNames(t *testing.T) {
	docs, sources := repoFiles(t)
	for _, f := range append(docs, sources...) {
		b, err := os.ReadFile(filepath.Join(repoRoot, f))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			if name := retiredBinary.FindString(line); name != "" {
				t.Errorf("%s:%d mentions the retired %s binary", f, i+1, name)
			}
		}
	}
}
