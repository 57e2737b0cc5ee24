package telemetry

import (
	"regexp"
	"strings"
)

// expositionLine accepts the line shapes the text exposition format
// allows (as this renderer emits them): HELP/TYPE comments and sample
// lines with optional labels.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+))$`)

// LintExposition checks a Prometheus text exposition document for
// well-formedness and returns one message per problem (nil when
// clean): every line must parse, every sample must sit inside its
// family's TYPE block, and histogram families must carry the full
// _bucket/_sum/_count triplet. The handler tests and the CI telemetry
// smoke test share this check.
//
//lint:api the exposition check the handler tests of every package share
func LintExposition(text string) []string {
	var problems []string
	typed := map[string]string{}
	cur := ""
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			problems = append(problems, "malformed line: "+line)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typed[f[2]] = f[3]
			cur = f[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed[name] == "" && typed[base] == "" {
			problems = append(problems, "sample without TYPE: "+name)
		}
		if cur != name && cur != base {
			problems = append(problems, "sample outside its family block: "+name)
		}
	}
	for fam, kind := range typed {
		if kind != "histogram" {
			continue
		}
		for _, suffix := range []string{"_bucket{", "_sum", "_count"} {
			if !strings.Contains(text, fam+suffix) {
				problems = append(problems, "histogram "+fam+" missing "+suffix+" samples")
			}
		}
	}
	return problems
}
