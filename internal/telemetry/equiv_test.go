package telemetry_test

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/telemetry"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// discardLogger silences the plane in tests.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// gzipSpec builds the reference run every test here uses.
func gzipSpec(t testing.TB) experiments.RunSpec {
	t.Helper()
	wl, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.RunSpec{
		Workload: wl, Machine: experiments.ILDPModified,
		Chain: translate.SWPredRAS, Timing: true,
	}
}

// TestTelemetryEquivalence is the zero-perturbation acceptance
// criterion: a run with the full plane attached — session registered,
// Poll hook installed, an SSE consumer streaming, and /metrics being
// scraped concurrently — must produce bit-identical architected state
// and identical Stats, timing, and PE distribution to an unattached
// run of the same program.
func TestTelemetryEquivalence(t *testing.T) {
	// Unattached reference run.
	baseSpec := gzipSpec(t)
	var baseCPU *emu.CPU
	baseSpec.Attach = func(v *vm.VM) { baseCPU = v.CPU() }
	base, err := experiments.Run(baseSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Attached run: plane + session + live consumers.
	reg := metrics.NewRegistry()
	plane := telemetry.New(telemetry.Options{Logger: discardLogger()})
	defer plane.Close()
	sess := plane.Register(telemetry.SessionConfig{
		Name: "equiv", Workload: "gzip", Machine: "ildp-modified", Registry: reg,
	})
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	// One SSE consumer draining for the whole run.
	streamed := new(atomic.Int64)
	sseDone := make(chan struct{})
	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(sseDone)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				streamed.Add(1)
			}
		}
	}()

	// A concurrent scraper exercising the probe protocol mid-run.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			r, err := http.Get(srv.URL + "/metrics?wait=5")
			if err != nil {
				return
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
	}()

	attSpec := gzipSpec(t)
	attSpec.Metrics = reg
	attSpec.Tune = func(cfg *vm.Config) { cfg.Poll = sess.Poll }
	var attCPU *emu.CPU
	attSpec.Attach = func(v *vm.VM) {
		attCPU = v.CPU()
		sess.Attach(telemetry.ProbeVM(v, nil))
	}
	att, err := experiments.Run(attSpec)
	if err != nil {
		t.Fatal(err)
	}
	sess.Finish()
	close(stopScrape)
	<-scrapeDone
	resp.Body.Close()
	<-sseDone

	// Bit-identical architected state.
	if baseCPU.PC != attCPU.PC || baseCPU.Halted != attCPU.Halted ||
		baseCPU.ExitStatus != attCPU.ExitStatus {
		t.Errorf("CPU state differs: base pc=%#x halted=%v status=%d, attached pc=%#x halted=%v status=%d",
			baseCPU.PC, baseCPU.Halted, baseCPU.ExitStatus,
			attCPU.PC, attCPU.Halted, attCPU.ExitStatus)
	}
	if baseCPU.Reg != attCPU.Reg {
		t.Error("register files differ with telemetry attached")
	}
	if baseCPU.ConsoleString() != attCPU.ConsoleString() {
		t.Error("console output differs with telemetry attached")
	}
	if ok, addr := mem.Equal(baseCPU.Mem, attCPU.Mem); !ok {
		t.Errorf("memory differs at %#x with telemetry attached", addr)
	}

	// Identical statistics and timing.
	if !reflect.DeepEqual(base.VM, att.VM) {
		t.Errorf("VM stats differ with telemetry attached:\n%+v\n%+v", base.VM, att.VM)
	}
	if base.Timing != att.Timing {
		t.Errorf("timing differs with telemetry attached:\n%+v\n%+v", base.Timing, att.Timing)
	}
	if !reflect.DeepEqual(base.PEDist, att.PEDist) {
		t.Error("PE distribution differs with telemetry attached")
	}

	// The attachment was real: the consumer streamed events and the
	// final exposition carries live vm.* samples.
	if streamed.Load() == 0 {
		t.Error("SSE consumer saw no events during the run")
	}
	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(body), `vm_interp_insts{session="1"`) {
		t.Errorf("final exposition missing live vm samples:\n%.2000s", body)
	}
}

// TestVMHotTableLive runs gzip with a real profiler attached through
// ProbeVM and checks that /vms/{id}?hot=N serves the profiler's own
// hottest fragments and cycle total.
func TestVMHotTableLive(t *testing.T) {
	plane := telemetry.New(telemetry.Options{Logger: discardLogger()})
	defer plane.Close()
	sess := plane.Register(telemetry.SessionConfig{Name: "hot", Workload: "gzip"})
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	p := prof.New(prof.Config{})
	spec := gzipSpec(t)
	spec.Prof = p
	spec.HotThreshold = 5 // more fragments than the table's rows
	spec.Tune = func(cfg *vm.Config) { cfg.Poll = sess.Poll }
	spec.Attach = func(v *vm.VM) { sess.Attach(telemetry.ProbeVM(v, p)) }
	if _, err := experiments.Run(spec); err != nil {
		t.Fatal(err)
	}
	sess.Finish()

	const n = 3
	resp, err := http.Get(srv.URL + "/vms/" + sess.ID() + "?hot=3")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Hot []struct {
			VStart  uint64 `json:"vstart"`
			Entries uint64 `json:"entries"`
			Cycles  int64  `json:"cycles"`
			IInsts  uint64 `json:"i_insts"`
			VInsts  uint64 `json:"v_insts"`
		} `json:"hot"`
		HotTotals *struct {
			TotalCycles int64 `json:"total_cycles"`
		} `json:"hot_totals"`
	}
	err = json.NewDecoder(resp.Body).Decode(&detail)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := p.Profile()
	if len(want.Frags) <= n {
		t.Fatalf("profile has %d fragments, want more than %d", len(want.Frags), n)
	}
	if len(detail.Hot) != n {
		t.Fatalf("hot table has %d rows, want %d", len(detail.Hot), n)
	}
	for i, row := range detail.Hot {
		f := want.Frags[i]
		if row.VStart != f.VStart || row.Entries != f.Entries || row.Cycles != f.Cycles ||
			row.IInsts != f.IInsts || row.VInsts != f.VInsts {
			t.Errorf("hot row %d = %+v, want fragment %#x entries %d cycles %d i %d v %d",
				i, row, f.VStart, f.Entries, f.Cycles, f.IInsts, f.VInsts)
		}
	}
	if detail.HotTotals == nil || detail.HotTotals.TotalCycles != want.TotalCycles {
		t.Errorf("hot totals = %+v, want total_cycles %d", detail.HotTotals, want.TotalCycles)
	}
}

// BenchmarkTelemetryOverhead measures the cost of attaching the plane:
// the same gzip run detached, attached-but-idle (Poll installed,
// nobody scraping), and attached with a streaming SSE consumer. The
// attached-idle delta is the price of one atomic load per poll
// boundary; the streaming delta adds the registry tap and broadcast
// publish per lifecycle event.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("detached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Run(gzipSpec(b)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("attached-idle", func(b *testing.B) {
		plane := telemetry.New(telemetry.Options{Logger: discardLogger()})
		defer plane.Close()
		for i := 0; i < b.N; i++ {
			reg := metrics.NewRegistry()
			sess := plane.Register(telemetry.SessionConfig{
				Name: "bench", Workload: "gzip", Registry: reg,
			})
			spec := gzipSpec(b)
			spec.Metrics = reg
			spec.Tune = func(cfg *vm.Config) { cfg.Poll = sess.Poll }
			spec.Attach = func(v *vm.VM) { sess.Attach(telemetry.ProbeVM(v, nil)) }
			if _, err := experiments.Run(spec); err != nil {
				b.Fatal(err)
			}
			sess.Finish()
		}
	})
	b.Run("attached-streaming", func(b *testing.B) {
		plane := telemetry.New(telemetry.Options{Logger: discardLogger()})
		defer plane.Close()
		srv := httptest.NewServer(plane.Handler())
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/events")
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		go io.Copy(io.Discard, resp.Body)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg := metrics.NewRegistry()
			sess := plane.Register(telemetry.SessionConfig{
				Name: "bench", Workload: "gzip", Registry: reg,
			})
			spec := gzipSpec(b)
			spec.Metrics = reg
			spec.Tune = func(cfg *vm.Config) { cfg.Poll = sess.Poll }
			spec.Attach = func(v *vm.VM) { sess.Attach(telemetry.ProbeVM(v, nil)) }
			if _, err := experiments.Run(spec); err != nil {
				b.Fatal(err)
			}
			sess.Finish()
		}
	})
}
