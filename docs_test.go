package hoyan

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// The two documents other files cite by section, and the three whose test
// names and hoyanbench experiments must exist. EXPERIMENTS.md and DESIGN.md
// hold the tree as it stands; their per-change history lives under docs/
// and is reached through each document's History index.
var (
	citedDocs   = []string{"DESIGN.md", "EXPERIMENTS.md"}
	currentDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}
)

// Directories the walk never enters: version control, the lint analyzers'
// deliberately odd inputs, and the outputs building and running the
// benchmark leave behind (all three listed in .gitignore).
var skippedDirs = []string{".git", "internal/lint/testdata", ".bench_build", "benchmark/out", "tmp"}

var (
	// A citation: `DESIGN.md, "Sweep engine"`, the comma optional, the
	// title in quotes or parenthesised quotes, and free to break across
	// lines of a comment.
	citationRE = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md,?(?:\s|//|#)+\(?"([^"]{1,160})"`)
	lineJoinRE = regexp.MustCompile(`\s*\n\s*(?://+|#+)?\s*`)
	codeSpanRE = regexp.MustCompile("`[^`\n]+`")
	headingRE  = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)
	// An emphasised paragraph lead: `**Dead guard.**` or `*Tie order.*`,
	// at the start of a line or of a list item.
	leadRE    = regexp.MustCompile(`(?m)^\s*(?:[-*]\s+)?\*\*?([^*\n]+?)\*\*?(?:\s|$)`)
	historyRE = regexp.MustCompile(`(?m)^\s*- \[(.+?)\]\(([^)#\s]+)#([^)\s]+)\)`)
	funcRE    = regexp.MustCompile(`(?m)^func\s+(?:\([^)]*\)\s*)?([A-Za-z_]\w*)`)
	testRE    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	expRE     = regexp.MustCompile(`-exp\s+([a-z0-9][a-z0-9-]*)`)
	expHelpRE = regexp.MustCompile(`flag\.String\("exp",\s*"[^"]*",\s*"([^"]*)"\)`)
)

// TestDocCitationsResolve checks that the repository's references to its
// own documents still point at something:
//
//   - every citation of DESIGN.md or EXPERIMENTS.md in a Go file, a
//     Makefile or a markdown file (the document's name, an optional comma
//     and a title in quotes) names a heading of that document, an
//     emphasised paragraph lead in it, or a title in its History index
//     (titles compared up to their first " (");
//   - every History index entry links to a heading of its history file;
//   - every Test, Fuzz or Benchmark name DESIGN.md, EXPERIMENTS.md and
//     README.md mention is a func in the tree (a trailing `*` names a
//     prefix);
//   - every `-exp NAME` they mention is an experiment cmd/hoyanbench
//     lists in its -exp help.
//
// A citation that starts inside a markdown code span is quoted, not
// made, and is not checked. The walk only reads; the nested benchmark
// module is read for its func names and citations like the rest of the
// tree.
func TestDocCitationsResolve(t *testing.T) {
	titles := map[string]map[string]bool{}
	for _, doc := range citedDocs {
		titles[doc] = docTitles(t, doc)
	}

	var funcs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if slices.Contains(skippedDirs, filepath.ToSlash(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		isGo, isMD := strings.HasSuffix(name, ".go"), strings.HasSuffix(name, ".md")
		if !isGo && !isMD && name != "Makefile" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(b)
		if isGo {
			for _, m := range funcRE.FindAllStringSubmatch(text, -1) {
				funcs = append(funcs, m[1])
			}
		}
		var spans [][]int
		if isMD {
			spans = codeSpanRE.FindAllStringIndex(text, -1)
		}
		for _, m := range citationRE.FindAllStringSubmatchIndex(text, -1) {
			if slices.ContainsFunc(spans, func(s []int) bool { return s[0] < m[0] && m[0] < s[1] }) {
				continue
			}
			doc := text[m[2]:m[3]] + ".md"
			title := lineJoinRE.ReplaceAllString(text[m[4]:m[5]], " ")
			if !titles[doc][titleKey(title)] {
				line := 1 + strings.Count(text[:m[0]], "\n")
				t.Errorf("%s:%d: %s, %q: no heading, paragraph lead or History entry has that title", path, line, doc, title)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	exps := hoyanbenchExperiments(t)
	for _, doc := range currentDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		lineOf := func(off int) int { return 1 + strings.Count(text[:off], "\n") }
		for _, m := range testRE.FindAllStringIndex(text, -1) {
			name := text[m[0]:m[1]]
			prefix, isPrefix := strings.CutSuffix(name, "*")
			found := slices.ContainsFunc(funcs, func(f string) bool {
				return f == name || isPrefix && strings.HasPrefix(f, prefix)
			})
			if !found {
				t.Errorf("%s:%d: %s names no func in the tree", doc, lineOf(m[0]), name)
			}
		}
		for _, m := range expRE.FindAllStringSubmatchIndex(text, -1) {
			if name := text[m[2]:m[3]]; !slices.Contains(exps, name) {
				t.Errorf("%s:%d: -exp %s is not a hoyanbench experiment (%s)", doc, lineOf(m[0]), name, strings.Join(exps, " | "))
			}
		}
	}
}

// docTitles returns what a citation of doc may name: its headings, its
// emphasised paragraph leads and the titles of its History index, each
// entry of which must link to a heading of the file it names.
func docTitles(t *testing.T, doc string) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	titles := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(text, -1) {
		titles[titleKey(m[1])] = true
	}
	for _, m := range leadRE.FindAllStringSubmatch(text, -1) {
		titles[titleKey(m[1])] = true
	}
	anchors := map[string]map[string]bool{}
	for _, m := range historyRE.FindAllStringSubmatch(text, -1) {
		title, file, anchor := m[1], filepath.Join(filepath.Dir(doc), m[2]), m[3]
		if anchors[file] == nil {
			anchors[file] = headingAnchors(t, file)
		}
		if !anchors[file][anchor] {
			t.Errorf("%s: History entry %q links to %s#%s, which is no heading there", doc, title, file, anchor)
		}
		titles[titleKey(title)] = true
	}
	return titles
}

// headingAnchors returns the link anchors of a markdown file's headings,
// made as GitHub makes them: lower case, every character but letters,
// digits, spaces, '-' and '_' dropped, spaces turned into '-', and a
// repeated anchor suffixed -1, -2, ...
func headingAnchors(t *testing.T, file string) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]bool{}
	seen := map[string]int{}
	for _, m := range headingRE.FindAllStringSubmatch(string(b), -1) {
		var sb strings.Builder
		for _, r := range strings.ToLower(m[1]) {
			switch {
			case r == ' ':
				sb.WriteRune('-')
			case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
				sb.WriteRune(r)
			}
		}
		a := sb.String()
		if n := seen[a]; n > 0 {
			seen[a]++
			a += "-" + strconv.Itoa(n)
		} else {
			seen[a] = 1
		}
		anchors[a] = true
	}
	return anchors
}

// titleKey is how a citation is compared with a title: up to the first
// " (", without a closing period, spaces collapsed.
func titleKey(s string) string {
	s, _, _ = strings.Cut(s, " (")
	s = strings.Join(strings.Fields(s), " ")
	return strings.TrimSuffix(s, ".")
}

// hoyanbenchExperiments reads the experiment names from cmd/hoyanbench's
// -exp help: "table1 | table2 | ... | all".
func hoyanbenchExperiments(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("cmd", "hoyanbench", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	m := expHelpRE.FindSubmatch(b)
	if m == nil {
		t.Fatal("cmd/hoyanbench/main.go: no -exp flag help found")
	}
	var exps []string
	for _, e := range strings.Split(string(m[1]), "|") {
		exps = append(exps, strings.TrimSpace(e))
	}
	return exps
}
