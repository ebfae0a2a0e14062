package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same names and units; bench_test.go keeps them in step.
type metricDef struct{ Name, Unit string }

// endToEnd are the untraced run's metrics, the same five on every
// workload. An operation is a guest run (vm-warm), a differential check
// (oracle-diff), a timed simulation (sim-fig8) or a served session
// (serve-http); its guest instructions are V-instructions, except on
// sim-fig8 where they are the timing models' retired records.
var endToEnd = []metricDef{
	{"minst_per_s", "Minst/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported on every workload.
// Shares are of the traced timed window; costs per unit aggregate every
// span of the layer in the traced run, replays included.
var perLayer = []metricDef{
	{"emu.ns_per_vinst", "ns"},
	{"emu.vinsts", "count"},
	{"emu.self_share", "frac"},
	{"vm.ns_per_iinst", "ns"},
	{"vm.interp_frac", "frac"},
	{"vm.fragments_per_run", "count"},
	{"vm.self_share", "frac"},
	{"translate.us_per_fragment", "us"},
	{"translate.work_units", "count"},
	{"iverify.us_per_fragment", "us"},
	{"semcheck.us_per_fragment", "us"},
	{"semcheck.proved_frac", "frac"},
	{"fragstore.keyof_us", "us"},
	{"fragstore.hit_ratio", "frac"},
	{"fragstore.encode_ms", "ms"},
	{"fragstore.decode_ms", "ms"},
	{"fragstore.bytes", "bytes"},
	{"tcache.install_us", "us"},
	{"checkpoint.encode_us", "us"},
	{"checkpoint.decode_us", "us"},
	{"checkpoint.bytes", "bytes"},
	{"vm.checkpoint_us", "us"},
	{"vm.restore_us", "us"},
	{"uarch.ooo_ns_per_rec", "ns"},
	{"uarch.ildp_ns_per_rec", "ns"},
	{"uarch.self_share", "frac"},
	{"serve.quantum_p50_ms", "ms"},
	{"serve.quantum_p99_ms", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.quanta_per_session", "count"},
	{"serve.ns_per_vinst", "ns"},
	{"serve.worker_busy_frac", "frac"},
	{"http.submit_p50_ms", "ms"},
	{"http.submit_p99_ms", "ms"},
	{"http.polls_per_session", "count"},
	{"trace.overhead_frac", "frac"},
}

// workloadDef is one benchmark workload. calibrated workloads report
// host times at the reference speed (see calib.go). aliases gives the
// generic end-to-end metrics the names they carry for this workload,
// which the detail line repeats.
type workloadDef struct {
	name       string
	body       func(*run) error
	calibrated bool
	aliases    map[string]string
}

var workloads = []workloadDef{
	{"vm-warm", vmWarm, true, map[string]string{"vm_mvips": "minst_per_s"}},
	{"oracle-diff", oracleDiff, true, map[string]string{
		"diff_checks_per_s": "ops_per_s", "diff_check_p50_ms": "op_p50_ms", "diff_check_p99_ms": "op_p99_ms"}},
	{"sim-fig8", simFig8, true, map[string]string{"sim_mrecs_per_s": "minst_per_s"}},
	{"serve-http", serveHTTP, false, map[string]string{
		"serve_sessions_per_s": "ops_per_s", "serve_session_p50_ms": "op_p50_ms", "serve_session_p99_ms": "op_p99_ms"}},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// run is the state of one workload child.
type run struct {
	opts options
	rng  *rand.Rand
	cal  *calibrator // nil when uncalibrated
	tr   *tracer     // nil when untraced
	main *lane       // the main goroutine's lane; nil when untraced

	// loopWall and loopLanes describe the traced timed window, the
	// denominator of the per-layer self shares.
	loopWall  time.Duration
	loopLanes int

	mu  sync.Mutex // guards res against the serve client goroutines
	res result
}

// runWorkload runs the workload named in o in this process.
func runWorkload(o options) (*result, error) {
	w := findWorkload(o.workload)
	r := &run{
		opts:      o,
		rng:       rand.New(rand.NewPCG(o.seed, 0x6163636462742d62)),
		loopLanes: 1,
		res: result{
			Metrics: map[string]float64{},
			Detail:  map[string]float64{},
			Counts:  map[string]uint64{},
		},
	}
	if w.calibrated {
		r.cal = newCalibrator()
	}
	if o.trace == 1 {
		r.tr = newTracer()
		r.main = r.tr.lane("main")
	}
	if err := w.body(r); err != nil {
		return nil, err
	}
	for alias, name := range w.aliases {
		if v, ok := r.res.Metrics[name]; ok {
			r.res.Detail[alias] = v
		} else if v, ok := r.res.Detail[name]; ok {
			r.res.Detail[alias] = v
		}
	}
	if r.tr != nil {
		if err := r.finishTrace(); err != nil {
			return nil, err
		}
	}
	r.res.MaxProcs = runtime.GOMAXPROCS(0)
	return &r.res, nil
}

// attempt counts n attempted operations.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.res.Attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Failed++
	if len(r.res.Failures) < 10 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// briefSeconds is the window below which a run is a smoke run: it sets
// up once instead of several times and skips the warm-up pass.
const briefSeconds = 5

// setup runs fn n times and reports the median duration, at the
// reference speed on a calibrated workload, as setup_s. Each call must
// leave the workload ready to measure; the last one's state is what the
// workload keeps. A brief run (a window under briefSeconds) sets up
// once. Garbage is collected before each call and before the
// calibration samples after it, so neither times the collector
// finishing earlier work.
func (r *run) setup(n int, fn func(l *lane) error) error {
	r.tr.setPhase("setup")
	if r.opts.seconds < briefSeconds {
		n = 1
	}
	var ds, raw []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		r.cal.burst(calibRecent)
		t := time.Now()
		if err := fn(r.main); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t).Seconds()
		runtime.GC()
		r.cal.burst(calibRecent)
		raw = append(raw, d)
		ds = append(ds, d*r.cal.scaleOver(2*calibRecent))
	}
	r.res.Metrics["setup_s"] = quantile(ds, 0.5)
	if r.cal != nil {
		r.res.Detail["raw_setup_s"] = quantile(raw, 0.5)
	}
	return nil
}

// sample is what one stretch of a workload's loop measured, pass by
// pass, in host time scaled to the reference speed (see calib.go) and
// as measured. Its statistics are medians over passes of each pass's
// own: a pass holds every kind of operation once, so a pass statistic
// never falls between two kinds' clusters, and a pass that a burst of
// contention slowed beyond what calibration corrects is outvoted.
type sample struct {
	passes []pass
	cur    pass
	lat    []float64 // every operation's scaled latency, ms
}

// pass is one pass (serve-http: the whole window) of a sample.
type pass struct {
	lat, rawLat   []float64 // ms
	units         float64   // guest instructions processed
	busy, rawBusy float64   // seconds the rate is computed over
}

// add records one operation of host time d and guest instructions
// units, measured when scale was the current reference scale.
func (s *sample) add(d time.Duration, units, scale float64) {
	s.addLatency(d, units, scale)
	s.cur.busy += d.Seconds() * scale
	s.cur.rawBusy += d.Seconds()
}

// addLatency records an operation without adding to the busy time
// (serve-http, whose rate is over wall time).
func (s *sample) addLatency(d time.Duration, units, scale float64) {
	ms := d.Seconds() * 1e3
	s.cur.lat = append(s.cur.lat, ms*scale)
	s.cur.rawLat = append(s.cur.rawLat, ms)
	s.cur.units += units
	s.lat = append(s.lat, ms*scale)
}

// endPass closes the current pass.
func (s *sample) endPass() {
	s.passes = append(s.passes, s.cur)
	s.cur = pass{}
}

// perPass returns the median over passes of f.
func (s *sample) perPass(f func(p *pass) float64) float64 {
	xs := make([]float64, len(s.passes))
	for i := range s.passes {
		xs[i] = f(&s.passes[i])
	}
	return quantile(xs, 0.5)
}

// rate is guest instructions per second, in millions; raw selects the
// unscaled times.
func (s *sample) rate(raw bool) float64 {
	return s.perPass(func(p *pass) float64 {
		if raw {
			return p.units / p.rawBusy / 1e6
		}
		return p.units / p.busy / 1e6
	})
}

// latency is the median over passes of each pass's q-quantile latency;
// raw selects the unscaled times.
func (s *sample) latency(q float64, raw bool) float64 {
	return s.perPass(func(p *pass) float64 {
		if raw {
			return quantile(p.rawLat, q)
		}
		return quantile(p.lat, q)
	})
}

// loopFn runs a workload's operations on lane l for at least d, ending
// on a whole pass; d == 0 asks for exactly one pass.
type loopFn func(l *lane, d time.Duration) sample

// measure runs one untimed warm-up pass, then the timed window. The
// peak RSS is that of the warm-up pass: one pass of every operation on
// top of what set-up keeps, but not set-up's garbage, nor what the
// window retains, which grows with speed. A brief run skips the warm-up
// and reads the peak after its window. Untraced, the window yields the
// end-to-end metrics. Traced, its first half runs without spans and its
// second half with them, and the difference in rate is the tracing
// overhead.
func (r *run) measure(loop loopFn) {
	r.tr.setPhase("warmup")
	runtime.GC()
	resetPeakRSS()
	brief := r.opts.seconds < briefSeconds
	if !brief {
		loop(nil, 0)
		r.res.Metrics["peak_rss_mb"] = float64(peakRSS()) / (1 << 20)
	}
	d := time.Duration(r.opts.seconds) * time.Second
	if r.tr == nil {
		s := loop(nil, d)
		if brief {
			r.res.Metrics["peak_rss_mb"] = float64(peakRSS()) / (1 << 20)
		}
		m, det := r.res.Metrics, r.res.Detail
		m["minst_per_s"] = s.rate(false)
		m["op_p50_ms"] = s.latency(0.50, false)
		m["op_p90_ms"] = s.latency(0.90, false)
		det["op_p99_ms"] = quantile(s.lat, 0.99)
		det["ops"] = float64(len(s.lat))
		det["passes"] = float64(len(s.passes))
		det["ops_per_s"] = s.perPass(func(p *pass) float64 { return float64(len(p.lat)) / p.busy })
		if r.cal != nil {
			det["raw_minst_per_s"] = s.rate(true)
			det["raw_op_p50_ms"] = s.latency(0.50, true)
			det["raw_op_p90_ms"] = s.latency(0.90, true)
			det["calib_ms"] = float64(calibRef.Nanoseconds()) / 1e6 / r.cal.runScale()
		}
		return
	}
	plain := loop(nil, d/2)
	r.tr.setPhase("loop")
	t0 := time.Now()
	traced := loop(r.main, d/2)
	r.loopWall = time.Since(t0)
	r.tr.setPhase("post")
	r.res.Metrics["trace.overhead_frac"] = plain.rate(false)/traced.rate(false) - 1
}

// passes calls pass until d has elapsed, at least once, closing each
// pass of s.
func passes(s *sample, d time.Duration, pass func()) {
	t0 := time.Now()
	for {
		pass()
		s.endPass()
		if time.Since(t0) >= d {
			return
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
