package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// LintMetrics validates a Prometheus text-format (0.0.4) exposition
// against the conventions ctgaussd guarantees:
//
//   - every sample belongs to a family declared by a preceding # TYPE
//     (histogram families own their _bucket/_sum/_count samples);
//   - no family is declared twice and samples are not interleaved
//     across families;
//   - family declarations appear in sorted order (the deterministic
//     scrape-diff guarantee);
//   - metric and label names are well-formed, counter families end in
//     _total, histogram _bucket samples carry an le label, and every
//     value parses as a float.
//
// It returns one error per violation (nil for a clean scrape).
func LintMetrics(r io.Reader) []error {
	var errs []error
	types := make(map[string]string) // family → kind
	var declared []string            // declaration order
	current := ""                    // family owning the sample block in progress
	seenSamples := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				errs = append(errs, fmt.Errorf("line %d: malformed comment %q", lineNo, line))
				continue
			}
			if fields[1] != "TYPE" {
				continue
			}
			if len(fields) != 4 {
				errs = append(errs, fmt.Errorf("line %d: malformed # TYPE line %q (want # TYPE name kind)", lineNo, line))
				continue
			}
			name, kind := fields[2], fields[3]
			if _, dup := types[name]; dup {
				errs = append(errs, fmt.Errorf("line %d: duplicate family %q", lineNo, name))
				continue
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				errs = append(errs, fmt.Errorf("line %d: family %q has unknown type %q", lineNo, name, kind))
			}
			if !metricNameRE.MatchString(name) {
				errs = append(errs, fmt.Errorf("line %d: family name %q is not a valid metric name", lineNo, name))
			}
			if kind == "counter" && !strings.HasSuffix(name, "_total") {
				errs = append(errs, fmt.Errorf("line %d: counter family %q should end in _total", lineNo, name))
			}
			types[name] = kind
			declared = append(declared, name)
			current = name
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			errs = append(errs, fmt.Errorf("line %d: %v", lineNo, err))
			continue
		}
		name := s.Name
		fam, ok := familyOf(name, types)
		if !ok {
			errs = append(errs, fmt.Errorf("line %d: sample %s has no registered family (# TYPE missing)", lineNo, name))
			continue
		}
		if fam != current {
			if seenSamples[fam] {
				errs = append(errs, fmt.Errorf("line %d: samples for family %q are interleaved with other families", lineNo, fam))
			}
			current = fam
		}
		seenSamples[fam] = true
		if _, le := s.Labels["le"]; types[fam] == "histogram" && strings.HasSuffix(name, "_bucket") && !le {
			errs = append(errs, fmt.Errorf("line %d: histogram sample %s lacks an le label", lineNo, name))
		}
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, fmt.Errorf("reading exposition: %v", err))
	}
	for i := 1; i < len(declared); i++ {
		if declared[i-1] > declared[i] {
			errs = append(errs, fmt.Errorf("family %q declared after %q: families must be sorted", declared[i], declared[i-1]))
		}
	}
	return errs
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Sample is one sample line of a Prometheus text exposition.
type Sample struct {
	// Series is the metric name and label block exactly as exposed,
	// e.g. `ctgaussd_requests_total{endpoint="samples"}`.
	Series string
	// Name is the metric name; a histogram's samples keep their _bucket,
	// _sum or _count suffix.
	Name string
	// Labels maps each label name to its unquoted value (nil when the
	// sample has no labels).
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// ParseMetrics reads every sample of a Prometheus text-format (0.0.4)
// exposition, in order, skipping comment and blank lines.  A malformed
// sample line is an error; family-level rules are LintMetrics's job.
func ParseMetrics(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading exposition: %v", err)
	}
	return out, nil
}

// parseSample parses "name{labels} value" (labels optional).
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return Sample{}, fmt.Errorf("unbalanced label braces in %q", line)
		}
		s.Name, s.Series = rest[:i], rest[:j+1]
		if body := rest[i+1 : j]; body != "" {
			s.Labels = make(map[string]string)
			for _, pair := range splitLabels(body) {
				k, v, ok := strings.Cut(pair, "=")
				uv, err := strconv.Unquote(v)
				if !ok || !metricNameRE.MatchString(k) || !strings.HasPrefix(v, `"`) || err != nil {
					return Sample{}, fmt.Errorf("malformed label %q in %q", pair, line)
				}
				s.Labels[k] = uv
			}
		}
		rest = rest[j+1:]
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return Sample{}, fmt.Errorf("malformed sample %q", line)
		}
		s.Name, s.Series, rest = fields[0], fields[0], fields[1]
	}
	if !metricNameRE.MatchString(s.Name) {
		return Sample{}, fmt.Errorf("invalid metric name %q", s.Name)
	}
	value := strings.TrimSpace(rest)
	if value == "" {
		return Sample{}, fmt.Errorf("sample %q has no value", line)
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return Sample{}, fmt.Errorf("sample %s has non-numeric value %q", s.Name, value)
	}
	s.Value = v
	return s, nil
}

// splitLabels splits a label body on commas outside quoted values; a
// backslash inside quotes escapes the byte after it.
func splitLabels(s string) []string {
	var out []string
	quoted := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if quoted {
				i++
			}
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, strings.TrimSpace(s[start:]))
	}
	return out
}

// familyOf resolves a sample name to its declared family: an exact
// match for scalar families, or the _bucket/_sum/_count suffix pattern
// for histogram families.
func familyOf(name string, types map[string]string) (string, bool) {
	if kind, ok := types[name]; ok {
		if kind == "histogram" {
			// Histogram families never emit a bare-name sample.
			return "", false
		}
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if types[base] == "histogram" {
				return base, true
			}
		}
	}
	return "", false
}
