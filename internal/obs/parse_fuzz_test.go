package obs

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseExposition feeds ParseExposition the /metrics text a remote
// server may send (schedctl parses what it fetches). The parser must not
// panic; a refusal returns an error and no exposition; and an accepted
// exposition, written back out one sample per line, parses to the same
// samples and types.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("requests_total", "Reqs.", L("endpoint", "compile"), L("outcome", "ok")).Add(7)
	r.Gauge("inflight", "In flight.").Set(-3)
	h := r.Histogram("lat_ns", "", []int64{100, 200}, L("q", "a\"b\\c\n"))
	h.Observe(50)
	h.Observe(150)
	h.Observe(250)
	rendered := r.RenderString()
	e, err := ParseExposition(rendered)
	if err != nil {
		f.Fatal(err)
	}
	want := []Sample{
		{"requests_total", map[string]string{"endpoint": "compile", "outcome": "ok"}, 7},
		{"inflight", nil, -3},
		{"lat_ns_bucket", map[string]string{"q": "a\"b\\c\n", "le": "100"}, 1},
		{"lat_ns_bucket", map[string]string{"q": "a\"b\\c\n", "le": "200"}, 2},
		{"lat_ns_bucket", map[string]string{"q": "a\"b\\c\n", "le": "+Inf"}, 3},
		{"lat_ns_sum", map[string]string{"q": "a\"b\\c\n"}, 450},
		{"lat_ns_count", map[string]string{"q": "a\"b\\c\n"}, 3},
	}
	if !reflect.DeepEqual(e.Samples, want) {
		f.Fatalf("rendered registry parsed to\n%v\nwant\n%v\nfrom\n%s", e.Samples, want, rendered)
	}
	f.Add(rendered)
	for _, s := range []string{
		"", "# TYPE x counter\nx 1\n", "x{} 1", "x +Inf", "x NaN", "x{a=\"}\"} 2",
		"no_value_here", "x{unterminated=\"v 1", "x{k=unquoted} 1", "x notanumber",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		e, err := ParseExposition(text)
		if err != nil {
			if e != nil {
				t.Fatalf("ParseExposition returned both an exposition and the error %v", err)
			}
			return
		}
		if e == nil {
			t.Fatal("ParseExposition accepted the text but returned no exposition")
		}
		out := writeExposition(e)
		back, err := ParseExposition(out)
		if err != nil {
			t.Fatalf("written exposition does not parse back: %v\n%s", err, out)
		}
		if !sameExposition(back, e) {
			t.Fatalf("round trip changed the exposition:\n%+v\nwant\n%+v\nvia\n%s", back, e, out)
		}
	})
}

// writeExposition writes e back out as exposition text: its types, then
// one sample per line with labels in key order.
func writeExposition(e *Exposition) string {
	var b strings.Builder
	for name, kind := range e.Types {
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
	}
	for _, s := range e.Samples {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		labels := make([]Label, len(keys))
		for i, k := range keys {
			labels[i] = L(k, s.Labels[k])
		}
		ls := formatLabels(labels)
		if s.Labels != nil && ls == "" {
			ls = "{}"
		}
		fmt.Fprintf(&b, "%s%s %s\n", s.Name, ls, strconv.FormatFloat(s.Value, 'g', -1, 64))
	}
	return b.String()
}

// sameExposition compares two expositions, treating NaN values as equal.
func sameExposition(a, b *Exposition) bool {
	if len(a.Samples) != len(b.Samples) || !reflect.DeepEqual(a.Types, b.Types) {
		return false
	}
	for i, s := range a.Samples {
		o := b.Samples[i]
		if s.Name != o.Name || !reflect.DeepEqual(s.Labels, o.Labels) ||
			(s.Value != o.Value && !(math.IsNaN(s.Value) && math.IsNaN(o.Value))) {
			return false
		}
	}
	return true
}
