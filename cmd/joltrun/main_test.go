package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schedfilter/internal/cliflags"
	"schedfilter/internal/features"
	"schedfilter/internal/interp"
	"schedfilter/internal/policy"
)

func TestResolvePolicyFixed(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"ls", "LS"},
		{"ns", "NS"},
		{"size:7", "size>=7"},
		{"cost:9", "cost>=9"},
	}
	for _, c := range cases {
		f, err := cliflags.ResolvePolicy(c.spec, "")
		if err != nil {
			t.Fatalf("ResolvePolicy(%q): %v", c.spec, err)
		}
		if f.Name() != c.name {
			t.Errorf("ResolvePolicy(%q).Name() = %q, want %q", c.spec, f.Name(), c.name)
		}
	}
}

func TestParseFilterRules(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.txt")
	text := "(  10/   1) list :- bbLen >= 9.\n( 100/   2) orig :- .\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := cliflags.ResolvePolicy("rules:"+path, "")
	if err != nil {
		t.Fatal(err)
	}
	var big, small features.Vector
	big[0], small[0] = 12, 3
	if !policy.Schedules(f, big) || policy.Schedules(f, small) {
		t.Error("rules filter decisions wrong")
	}
}

func TestResolvePolicyErrors(t *testing.T) {
	for _, spec := range []string{"bogus", "size:x", "rules:/nonexistent/file"} {
		if _, err := cliflags.ResolvePolicy(spec, ""); err == nil {
			t.Errorf("ResolvePolicy(%q) succeeded, want error", spec)
		}
	}
	// Empty means unset, not an error: the caller decides what unset means.
	if f, err := cliflags.ResolvePolicy("", ""); f != nil || err != nil {
		t.Errorf("ResolvePolicy(\"\") = %v, %v; want nil, nil", f, err)
	}
}

func TestLoadModuleFromJoltSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.jolt")
	src := "func main() int { return 5; }"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := loadModule("", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 5 {
		t.Errorf("ret = %d, want 5", res.Ret)
	}
}

func TestLoadModuleWorkload(t *testing.T) {
	mod, err := loadModule("compress", nil)
	if err != nil {
		t.Fatal(err)
	}
	if mod.FnIndex("main") < 0 {
		t.Error("workload module lacks main")
	}
}

func TestLoadModuleErrors(t *testing.T) {
	if _, err := loadModule("", nil); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("want usage error, got %v", err)
	}
	if _, err := loadModule("doom", nil); err == nil {
		t.Error("unknown workload should fail")
	}
}
