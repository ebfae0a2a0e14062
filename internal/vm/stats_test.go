package vm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden Stats name sets")

// distinctStats returns a Stats in which every scalar field and every
// array element holds its own nonzero value, negative for signed
// fields, with bits set in both halves of the word.
func distinctStats() Stats {
	var s Stats
	n := uint64(0)
	scalars(&s, func(_ string, f reflect.Value) {
		n++
		bits := n<<32 | n
		if f.CanInt() {
			f.SetInt(-int64(bits))
		} else {
			f.SetUint(bits)
		}
	})
	return s
}

// scalars walks every scalar field and array element of s, calling fn
// with the position's checkpoint key and its settable value.
func scalars(s *Stats, fn func(key string, f reflect.Value)) {
	rv := reflect.ValueOf(s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		key := "stats." + rv.Type().Field(i).Name
		f := rv.Field(i)
		if f.Kind() != reflect.Array {
			fn(key, f)
			continue
		}
		for j := 0; j < f.Len(); j++ {
			fn(fmt.Sprintf("%s.%d", key, j), f.Index(j))
		}
	}
}

// gzipStoreStats runs gzip to completion against a fresh shared
// fragment store, so the store counters are live.
func gzipStoreStats(t *testing.T) Stats {
	t.Helper()
	wl, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wl.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = fragstore.New()
	v := New(mem.New(), cfg)
	if err := v.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(0); err != nil {
		t.Fatal(err)
	}
	return v.Stats
}

// TestStatsGolden pins both name sets read off Stats — the counters
// Publish creates (zero-valued ones included) and the checkpoint's
// flattened counter map — for synthetic values that switch each
// Publish group on or off, and for a real run with a store. Run with
// -update to rewrite testdata/stats.golden.
func TestStatsGolden(t *testing.T) {
	cases := []struct {
		name string
		s    Stats
	}{
		{"zero", Stats{}},
		{"distinct", distinctStats()},
		{"cache-shrink", Stats{CacheShrinks: 1}},
		{"store-hit", Stats{StoreHits: 1}},
		{"gzip-store", gzipStoreStats(t)},
	}
	var b strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&b, "== %s\n", c.name)
		reg := metrics.NewRegistry()
		c.s.Publish(reg)
		for _, nc := range reg.Snapshot().Counters {
			fmt.Fprintf(&b, "publish %s %d\n", nc.Name, nc.Value)
		}
		v := New(mem.New(), DefaultConfig())
		v.Stats = c.s
		counters := v.Checkpoint().Counters
		keys := make([]string, 0, len(counters))
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "checkpoint %s %d\n", k, counters[k])
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "stats.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Publish/Checkpoint name sets differ from %s; got:\n%s", path, got)
	}
}

// TestStatsCountersRoundTrip is the completeness check on statFields:
// every scalar field and array element of Stats has exactly one row,
// under its own key, whose accessors reach that position and no other;
// keys and metric names are unique; and a Stats with every position
// distinct survives Checkpoint → Encode → Decode → Restore exactly. A
// field added without a row fails here.
func TestStatsCountersRoundTrip(t *testing.T) {
	keys := map[string]bool{}
	names := map[string]bool{"vm.recovery.total": true}
	for _, f := range statFields {
		if keys[f.key] {
			t.Errorf("checkpoint key %s declared twice", f.key)
		}
		keys[f.key] = true
		if (f.metric == "") != (f.when == never) {
			t.Errorf("%s: metric %q with publish rule %d", f.key, f.metric, f.when)
		}
		if f.metric != "" && names[f.metric] {
			t.Errorf("metric %s declared twice", f.metric)
		}
		names[f.metric] = true
	}

	positions := 0
	scalars(&Stats{}, func(string, reflect.Value) { positions++ })
	if positions != len(statFields) {
		t.Errorf("Stats has %d scalar positions, statFields %d rows", positions, len(statFields))
	}
	for p := 0; p < positions; p++ {
		var alone Stats
		var key string
		i := 0
		scalars(&alone, func(k string, f reflect.Value) {
			if i == p {
				key = k
				if f.CanInt() {
					f.SetInt(-7)
				} else {
					f.SetUint(7)
				}
			}
			i++
		})
		var rows []statField
		for _, f := range statFields {
			if f.get(&alone) != 0 {
				rows = append(rows, f)
			}
		}
		if len(rows) != 1 {
			t.Errorf("%s is read by %d statFields rows, want exactly 1", key, len(rows))
			continue
		}
		if rows[0].key != key {
			t.Errorf("%s is read by the row keyed %s", key, rows[0].key)
		}
		var back Stats
		rows[0].set(&back, rows[0].get(&alone))
		if back != alone {
			t.Errorf("%s: row set does not restore exactly that position", key)
		}
	}

	want := distinctStats()
	v := New(mem.New(), DefaultConfig())
	v.Stats = want
	st, err := checkpoint.Decode(checkpoint.Encode(v.Checkpoint()))
	if err != nil {
		t.Fatal(err)
	}
	r := New(mem.New(), DefaultConfig())
	r.Restore(st)
	if r.Stats != want {
		t.Errorf("Stats did not round-trip:\n got %+v\nwant %+v", r.Stats, want)
	}
}
