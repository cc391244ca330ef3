package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"schedfilter/internal/experiments"
)

// writeArtifact is the one writer of BENCH_*.json files: the artifact as
// indented JSON with a trailing newline.
func writeArtifact(path string, a experiments.Artifact) error {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// checkArtifact compares a's deterministic section, compacted, byte for
// byte with the deterministic section of the file at path. The file's
// timing section is ignored. A mismatch names the first differing key.
func checkArtifact(path string, a experiments.Artifact) error {
	want, err := json.Marshal(a.Deterministic)
	if err != nil {
		return err
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file struct {
		Deterministic json.RawMessage `json:"deterministic"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		return err
	}
	if file.Deterministic == nil {
		return fmt.Errorf("no deterministic section")
	}
	var got bytes.Buffer
	if err := json.Compact(&got, file.Deterministic); err != nil {
		return err
	}
	if bytes.Equal(got.Bytes(), want) {
		return nil
	}
	var gv, wv any
	if err := decodeNumbers(got.Bytes(), &gv); err != nil {
		return err
	}
	if err := decodeNumbers(want, &wv); err != nil {
		return err
	}
	if key, ok := firstDiff("deterministic", gv, wv); ok {
		return fmt.Errorf("%s differs from the regenerated value", key)
	}
	return fmt.Errorf("deterministic section differs in its encoding only")
}

// decodeNumbers decodes JSON keeping numbers as their literal text, so
// two numbers compare equal only when they print the same.
func decodeNumbers(buf []byte, v *any) error {
	d := json.NewDecoder(bytes.NewReader(buf))
	d.UseNumber()
	return d.Decode(v)
}

// firstDiff returns the path of the first place two decoded JSON values
// differ, visiting object keys in sorted order and array elements in
// index order, and whether they differ at all.
func firstDiff(path string, a, b any) (string, bool) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return path, true
		}
		keys := sortedKeys(av)
		for k := range bv {
			if _, in := av[k]; !in {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if p, d := firstDiff(path+"."+k, av[k], bv[k]); d {
				return p, true
			}
		}
		return "", false
	case []any:
		bv, ok := b.([]any)
		if !ok {
			return path, true
		}
		n := min(len(av), len(bv))
		for i := 0; i < n; i++ {
			if p, d := firstDiff(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); d {
				return p, true
			}
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("%s[%d]", path, n), true
		}
		return "", false
	default:
		return path, a != b
	}
}
