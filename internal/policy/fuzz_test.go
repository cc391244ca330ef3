package policy

import (
	"os"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse, the entry point that inline
// models in request bodies reach. Parse must not panic, must refuse with
// an error rather than a nil policy, and any policy it accepts must
// format to text that parses back to a policy with the same ID.
func FuzzParse(f *testing.F) {
	model, err := os.ReadFile("../../cmd/schedserved/factory_model.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(model))
	for _, spec := range []string{
		"always", "never", "ls", "NS", "default", "size:5", "Size:4", "cost:12",
		"portfolio:always+size:3", "portfolio:never+cost:8+size:2",
		"size:-1", "cost:5:extra", "portfolio:", "portfolio:always+nonesuch", "ripper",
	} {
		f.Add(spec)
		f.Add(specDocHeader + " " + spec + "\n")
	}
	f.Add("# filter: tiny\n# target: mpc7410\n(    1/   0) list :- bbLen >= 3.\n(    2/   0) orig :- .\n")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text, "")
		if err != nil {
			if p != nil {
				t.Fatalf("Parse returned both a policy and the error %v", err)
			}
			return
		}
		if p == nil {
			t.Fatal("Parse accepted the text but returned no policy")
		}
		out, err := format(p)
		if err != nil {
			t.Fatalf("accepted policy %s does not format: %v", ID(p), err)
		}
		back, err := Parse(out, "")
		if err != nil {
			t.Fatalf("formatted policy does not parse back: %v\n%s", err, out)
		}
		if got, want := ID(back), ID(p); got != want {
			t.Fatalf("round trip changed the ID: %q, want %q\n%s", got, want, out)
		}
	})
}
