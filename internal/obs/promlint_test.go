package obs

import (
	"reflect"
	"strings"
	"testing"
)

func lintString(s string) []error { return LintMetrics(strings.NewReader(s)) }

func TestLintCleanExposition(t *testing.T) {
	scrape := `# HELP a_requests_total Requests.
# TYPE a_requests_total counter
a_requests_total{endpoint="samples"} 12
a_requests_total{endpoint="sign"} 3
# HELP b_inflight In-flight requests.
# TYPE b_inflight gauge
b_inflight 0
# HELP c_stage_seconds Stage time.
# TYPE c_stage_seconds histogram
c_stage_seconds_bucket{stage="decode",le="0.001"} 4
c_stage_seconds_bucket{stage="decode",le="+Inf"} 5
c_stage_seconds_sum{stage="decode"} 0.004
c_stage_seconds_count{stage="decode"} 5
`
	if errs := lintString(scrape); len(errs) != 0 {
		t.Fatalf("clean scrape flagged: %v", errs)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name, scrape, want string
	}{
		{
			"unregistered sample",
			"# TYPE a_total counter\na_total 1\nrogue_metric 2\n",
			"no registered family",
		},
		{
			"duplicate family",
			"# TYPE a_total counter\na_total 1\n# TYPE a_total counter\na_total 2\n",
			"duplicate family",
		},
		{
			"unsorted families",
			"# TYPE b_total counter\nb_total 1\n# TYPE a_total counter\na_total 1\n",
			"must be sorted",
		},
		{
			"counter without _total",
			"# TYPE a_count counter\na_count 1\n",
			"should end in _total",
		},
		{
			"bucket without le",
			"# TYPE a_seconds histogram\na_seconds_bucket{x=\"y\"} 1\na_seconds_sum 1\na_seconds_count 1\n",
			"lacks an le label",
		},
		{
			"non-numeric value",
			"# TYPE a_total counter\na_total pony\n",
			"non-numeric value",
		},
		{
			"# TYPE without a kind",
			"# TYPE ctgaussd_foo\nctgaussd_foo 1\n",
			"malformed # TYPE line",
		},
		{
			"interleaved families",
			"# TYPE a_total counter\n# TYPE b_total counter\na_total 1\nb_total 1\na_total{x=\"y\"} 2\n",
			"interleaved",
		},
	}
	for _, tc := range cases {
		errs := lintString(tc.scrape)
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: lint missed it (errors: %v)", tc.name, errs)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	scrape := `# HELP a_requests_total Requests.
# TYPE a_requests_total counter
a_requests_total{note="x, \"y\" \\",endpoint="samples"} 12

a_uptime_seconds 3.5
# TYPE c_stage_seconds histogram
c_stage_seconds_bucket{stage="decode",le="0.001"} 4
c_stage_seconds_bucket{stage="decode",le="+Inf"} 5
c_stage_seconds_sum{stage="decode"} 0.004
c_stage_seconds_count{stage="decode"} 5
`
	got, err := ParseMetrics(strings.NewReader(scrape))
	if err != nil {
		t.Fatal(err)
	}
	want := []Sample{
		{`a_requests_total{note="x, \"y\" \\",endpoint="samples"}`, "a_requests_total",
			map[string]string{"endpoint": "samples", "note": `x, "y" \`}, 12},
		{"a_uptime_seconds", "a_uptime_seconds", nil, 3.5},
		{`c_stage_seconds_bucket{stage="decode",le="0.001"}`, "c_stage_seconds_bucket",
			map[string]string{"stage": "decode", "le": "0.001"}, 4},
		{`c_stage_seconds_bucket{stage="decode",le="+Inf"}`, "c_stage_seconds_bucket",
			map[string]string{"stage": "decode", "le": "+Inf"}, 5},
		{`c_stage_seconds_sum{stage="decode"}`, "c_stage_seconds_sum", map[string]string{"stage": "decode"}, 0.004},
		{`c_stage_seconds_count{stage="decode"}`, "c_stage_seconds_count", map[string]string{"stage": "decode"}, 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", got, want)
	}
	// Series is each sample line's exposed text up to the value.
	k := 0
	for _, line := range strings.Split(scrape, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if exposed := line[:strings.LastIndexByte(line, ' ')]; got[k].Series != exposed {
			t.Errorf("Series = %q, exposed as %q", got[k].Series, exposed)
		}
		k++
	}
}

func TestParseMetricsRejectsMalformedSample(t *testing.T) {
	for _, line := range []string{
		"a_total",                 // no value
		"a_total 1 2",             // extra field
		"a_total pony",            // non-numeric value
		`a_total{x="y" 1`,         // unbalanced braces
		`a_total{x=y} 1`,          // unquoted label value
		"a_total{x=`y`} 1",        // backquoted label value
		`a_total{x="y\q"} 1`,      // invalid escape
		`9a_total 1`,              // invalid metric name
		`a_total{x="y"}`,          // labels but no value
		`a_total{x="y",9z="w"} 1`, // invalid label name
	} {
		if _, err := ParseMetrics(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q parsed without error", line)
		}
	}
}
