package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory until the run ends. A
// span is one call from the benchmark into a layer: its name is
// "<layer>.<call>", and it records its start, end, parent span, lane
// (goroutine), trace id (the guest, check or session it belongs to),
// the phase of the run it fell in, and the units of work it did. A nil
// *tracer and a nil *lane record nothing.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	phase  string
	phases []phaseSpan
	spans  []span
	lanes  []string
	traces int64
}

type span struct {
	parent     int32 // index of the enclosing span on the same lane, -1 for none
	lane       int
	trace      int64
	name       string
	phase      string
	start, end time.Duration
	units      float64
}

type phaseSpan struct {
	name       string
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now(), phase: "start"} }

// lane returns a recorder for one goroutine.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lanes = append(t.lanes, name)
	return &lane{tr: t, id: len(t.lanes) - 1}
}

// setPhase closes the current phase of the run and opens the next.
func (t *tracer) setPhase(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.t0)
	if n := len(t.phases); n > 0 {
		t.phases[n-1].end = now
	}
	t.phases = append(t.phases, phaseSpan{name: name, start: now})
	t.phase = name
}

// lane records the spans of one goroutine; spans on a lane nest.
type lane struct {
	tr    *tracer
	id    int
	trace int64
	open  []int32
}

// nextTrace starts a new trace id (a new guest, check or session) and
// returns it.
func (l *lane) nextTrace() int64 {
	if l == nil {
		return 0
	}
	l.tr.mu.Lock()
	l.tr.traces++
	l.trace = l.tr.traces
	l.tr.mu.Unlock()
	return l.trace
}

// setTrace resumes an earlier trace id.
func (l *lane) setTrace(id int64) {
	if l != nil {
		l.trace = id
	}
}

// begin opens a span named name.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	t := l.tr
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: parent, lane: l.id, trace: l.trace,
		name: name, phase: t.phase, start: time.Since(t.t0)})
	t.mu.Unlock()
	l.open = append(l.open, id)
}

// end closes the innermost open span, crediting it with units of work.
func (l *lane) end(units float64) {
	if l == nil {
		return
	}
	now := time.Since(l.tr.t0)
	id := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.tr.mu.Lock()
	l.tr.spans[id].end = now
	l.tr.spans[id].units = units
	l.tr.mu.Unlock()
}

// agg sums the spans of one name.
type agg struct {
	n        int
	self     time.Duration
	units    float64
	loopSelf time.Duration
}

// aggregate computes every span's self time (its duration minus the
// part its children cover) and sums spans by name.
func (t *tracer) aggregate() map[string]*agg {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*agg{}
	for i, s := range t.spans {
		a := out[s.name]
		if a == nil {
			a = &agg{}
			out[s.name] = a
		}
		self := s.end - s.start - child[i]
		a.n++
		a.self += self
		a.units += s.units
		if s.phase == "loop" {
			a.loopSelf += self
		}
	}
	return out
}

// layerOf is the layer a span name belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// finishTrace derives the per-layer metrics from the spans and writes
// the Chrome trace and the layer table.
func (r *run) finishTrace() error {
	t := r.tr
	t.setPhase("end")
	byName := t.aggregate()
	m := r.res.Metrics

	// Costs are reported like every host time: at the reference speed on
	// a calibrated workload, as measured otherwise.
	ref := r.cal.runScale()
	rawPerUnit := func(name string) float64 {
		if a := byName[name]; a != nil && a.units > 0 {
			return float64(a.self.Nanoseconds()) / a.units
		}
		return 0
	}
	perUnit := func(name string, unit float64) float64 { return rawPerUnit(name) * ref / unit }
	perSpan := func(name string, unit float64) float64 {
		if a := byName[name]; a != nil && a.n > 0 {
			return float64(a.self.Nanoseconds()) / float64(a.n) * ref / unit
		}
		return 0
	}
	m["emu.ns_per_vinst"] = perUnit("emu.run", 1)
	m["vm.ns_per_iinst"] = perUnit("vm.run", 1)
	m["translate.us_per_fragment"] = perSpan("translate.translate", 1e3)
	m["iverify.us_per_fragment"] = perSpan("iverify.verify", 1e3)
	m["semcheck.us_per_fragment"] = perSpan("semcheck.check", 1e3)
	m["fragstore.keyof_us"] = perSpan("fragstore.keyof", 1e3)
	m["fragstore.encode_ms"] = perSpan("fragstore.encode", 1e6)
	m["fragstore.decode_ms"] = perSpan("fragstore.decode", 1e6)
	m["tcache.install_us"] = perSpan("tcache.install", 1e3)
	m["checkpoint.encode_us"] = perSpan("checkpoint.encode", 1e3)
	m["checkpoint.decode_us"] = perSpan("checkpoint.decode", 1e3)
	m["vm.checkpoint_us"] = perSpan("vm.checkpoint", 1e3)
	m["vm.restore_us"] = perSpan("vm.restore", 1e3)
	m["uarch.ooo_ns_per_rec"] = perUnit("uarch.ooo", 1)
	m["uarch.ildp_ns_per_rec"] = perUnit("uarch.ildp", 1)

	// Loop self time by layer. An experiments.Run call is the VM and a
	// timing model together; its timing-model part is estimated from the
	// replayed per-record cost and the rest is charged to the VM.
	loop := map[string]time.Duration{}
	for name, a := range byName {
		loop[layerOf(name)] += a.loopSelf
	}
	for _, kind := range []string{"ooo", "ildp"} {
		perRec := rawPerUnit("uarch." + kind)
		a := byName["experiments.run."+kind]
		if a == nil || a.loopSelf == 0 {
			continue
		}
		recs := a.units * float64(a.loopSelf) / float64(a.self)
		est := min(time.Duration(recs*perRec), a.loopSelf)
		loop["uarch"] += est
		loop["vm"] += a.loopSelf - est
		loop["experiments"] -= a.loopSelf
	}
	lanes := time.Duration(r.loopLanes)
	var total time.Duration
	for _, d := range loop {
		total += d
	}
	if total > r.loopWall*lanes {
		r.fail("trace: the window's self times sum to %v, more than its %v of lane time", total, r.loopWall*lanes)
	}
	share := func(layer string) float64 { return float64(loop[layer]) / float64(r.loopWall*lanes) }
	m["emu.self_share"] = share("emu")
	m["vm.self_share"] = share("vm")
	m["uarch.self_share"] = share("uarch")

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", r.opts.workload, r.opts.seed))
	if err := writeFile(base+".trace.json", t.writeChrome); err != nil {
		return err
	}
	return writeFile(base+".layers.txt", func(w io.Writer) error {
		return t.writeLayers(w, byName, loop, r.loopWall*lanes)
	})
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// chromeEvent is one Chrome trace-event ("X" complete events for
// spans, "M" metadata naming lanes and the process).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open. Run phases appear on their own
// track.
func (t *tracer) writeChrome(w io.Writer) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	phaseTID := len(t.lanes)
	ev := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "accbench"}}}
	for i, name := range append(append([]string(nil), t.lanes...), "phases") {
		ev = append(ev, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: i, Args: map[string]any{"name": name}})
	}
	for _, p := range t.phases {
		ev = append(ev, chromeEvent{Name: p.name, Cat: "phase", Ph: "X", TS: us(p.start), Dur: us(p.end - p.start), PID: 1, TID: phaseTID})
	}
	for i, s := range t.spans {
		ev = append(ev, chromeEvent{Name: s.name, Cat: layerOf(s.name), Ph: "X", TS: us(s.start),
			Dur: us(s.end - s.start), PID: 1, TID: s.lane,
			Args: map[string]any{"id": i, "parent": s.parent, "trace": s.trace, "phase": s.phase, "units": s.units}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": ev, "displayTimeUnit": "ms"})
}

// writeLayers writes the per-layer table: span count, self time and
// share of the run's lane time, then self time and share of the traced
// timed window, then the per-span-name cost per unit of work. Lane time
// sums each lane's span from its first span's start to its last span's
// end, so the shares of one table sum to at most 1.
func (t *tracer) writeLayers(w io.Writer, byName map[string]*agg, loop map[string]time.Duration, loopLaneTime time.Duration) error {
	first := make([]time.Duration, len(t.lanes))
	last := make([]time.Duration, len(t.lanes))
	seen := make([]bool, len(t.lanes))
	for _, s := range t.spans {
		if !seen[s.lane] || s.start < first[s.lane] {
			first[s.lane] = s.start
		}
		seen[s.lane] = true
		last[s.lane] = max(last[s.lane], s.end)
	}
	var laneTime time.Duration
	for i := range first {
		laneTime += last[i] - first[i]
	}
	type row struct {
		n    int
		self time.Duration
	}
	layers := map[string]*row{}
	for name, a := range byName {
		l := layers[layerOf(name)]
		if l == nil {
			l = &row{}
			layers[layerOf(name)] = l
		}
		l.n += a.n
		l.self += a.self
	}
	var names []string
	for name := range layers {
		names = append(names, name)
	}
	for name := range loop {
		if layers[name] == nil && loop[name] != 0 {
			layers[name] = &row{}
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	fmt.Fprintf(w, "lane time %.1f ms over %d lanes; timed window %.1f ms of lane time\n\n", ms(laneTime), len(t.lanes), ms(loopLaneTime))
	fmt.Fprintf(w, "%-12s %8s %12s %9s %12s %9s\n", "layer", "spans", "self_ms", "run_share", "window_ms", "win_share")
	var sum, loopSum time.Duration
	for _, name := range names {
		l := layers[name]
		sum += l.self
		loopSum += loop[name]
		fmt.Fprintf(w, "%-12s %8d %12.1f %9.4f %12.1f %9.4f\n", name, l.n, ms(l.self),
			float64(l.self)/float64(laneTime), ms(loop[name]), float64(loop[name])/float64(loopLaneTime))
	}
	fmt.Fprintf(w, "%-12s %8s %12.1f %9.4f %12.1f %9.4f\n\n", "total", "", ms(sum),
		float64(sum)/float64(laneTime), ms(loopSum), float64(loopSum)/float64(loopLaneTime))
	var spanNames []string
	for name := range byName {
		spanNames = append(spanNames, name)
	}
	sort.Strings(spanNames)
	fmt.Fprintf(w, "%-26s %8s %12s %14s %14s\n", "span", "count", "self_ms", "units", "ns_per_unit")
	for _, name := range spanNames {
		a := byName[name]
		perUnit := 0.0
		if a.units > 0 {
			perUnit = float64(a.self.Nanoseconds()) / a.units
		}
		fmt.Fprintf(w, "%-26s %8d %12.1f %14.0f %14.1f\n", name, a.n, ms(a.self), a.units, perUnit)
	}
	return nil
}
