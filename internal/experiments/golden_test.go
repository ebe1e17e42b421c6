package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden quality fixtures")

// checkGoldenRows pins a quality experiment's rows to
// testdata/golden/<name>.json. encoding/json writes each float64 in its
// shortest round-trip form, so equal bytes mean bit-equal measurements.
// Refresh only on an intended numerics change:
// go test ./internal/experiments -run <test> -update
func checkGoldenRows(t *testing.T, name string, rows any) {
	t.Helper()
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(want, data) {
		t.Errorf("%s rows diverged from %s; got:\n%s", name, path, data)
	}
}
