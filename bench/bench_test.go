package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for accbench: the parent side
// re-executes os.Executable, which here is this binary. The test runs
// from the repository root, as run.sh does, so that the benchmark's
// relative paths hold; its children inherit that directory.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDeclaredMetricsMatch(t *testing.T) {
	spec := loadSpec(t)
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames())
	}
}

// TestSmoke runs every workload for one second, and one traced, through
// the parent and a child process, and checks that each prints exactly
// the declared metrics with their units and no failures.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	type tc struct {
		workload, trace string
		want            []metricDef
	}
	cases := []tc{{"serve-http", "1", perLayer}}
	for _, w := range workloadNames() {
		cases = append(cases, tc{w, "0", endToEnd})
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/trace"+c.trace, func(t *testing.T) {
			t.Parallel()
			var out, errs bytes.Buffer
			code := parentMain([]string{"--workload", c.workload, "--seed", "3", "--seconds", "1",
				"--trace", c.trace}, &out, &errs)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var fin final
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fin); err != nil {
				t.Fatalf("exit %d, last line %q: %v\n%s", code, lines[len(lines)-1], err, errs.String())
			}
			if code != 0 || !fin.Correct || fin.Failed != 0 || fin.Attempted < 1 {
				t.Fatalf("exit %d, %d of %d failed\n%s", code, fin.Failed, fin.Attempted, errs.String())
			}
			if len(fin.Metrics) != len(c.want) {
				t.Errorf("%d metrics, want %d", len(fin.Metrics), len(c.want))
			}
			for _, m := range c.want {
				if got, ok := fin.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}
