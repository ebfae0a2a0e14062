package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/serve"
)

// The serve-http load shape: an in-process server with two workers and
// a 15 000 V-instruction quantum, driven by two client connections that
// each keep four sessions outstanding (eight live sessions on two
// workers, so the run queue never empties), spread over four tenants.
const (
	serveWorkers = 2
	serveQuantum = 15_000
	serveConns   = 2
	serveWindow  = 4
	serveTenants = 4
	pollWaitMS   = 2000
)

// serveHTTP serves the twelve kernels times two data seeds at scale 4
// through the HTTP API in a closed loop: submit, long-poll the oldest
// outstanding session until it ends, resubmit. Each session is
// preempted tens of times, and every quantum rebuilds a VM, restores a
// checkpoint and re-interprets up to the hot threshold. The timed window
// is one continuous closed loop: clients submit until it ends, then wait
// out their outstanding sessions. Every session submitted in it counts,
// its rate is over the wall time until the last one ends, and times are
// as measured. After the window every final checkpoint is compared with
// the interpreter oracle.
func serveHTTP(r *run) error {
	var guests []*guest
	var g *rig
	defer func() {
		if g != nil {
			g.close()
		}
	}()
	err := r.setup(3, func(l *lane) error {
		if g != nil {
			g.close()
			g = nil
		}
		gs, err := makeGuests(l, seedRange(r.opts.seed, 2), 4)
		if err == nil {
			err = withImages(gs)
		}
		if err == nil {
			err = r.oracles(l, gs)
		}
		if err != nil {
			return err
		}
		l.begin("serve.start")
		g, err = startRig()
		l.end(0)
		guests = gs
		return err
	})
	if err != nil {
		return err
	}
	dv := newDriver(r, g, guests)
	var loopBusyMS float64
	r.loopLanes = serveConns
	r.measure(func(l *lane, d time.Duration) (s sample) {
		lanes := make([]*lane, serveConns)
		if l != nil {
			for i := range lanes {
				lanes[i] = r.tr.lane(fmt.Sprintf("client-%d", i))
			}
		}
		if d == 0 {
			dv.drive(lanes, len(guests), time.Time{}) // warm-up: every program once
			return s
		}
		q0 := g.quantumMS()
		t0 := time.Now()
		done := dv.drive(lanes, 0, t0.Add(d))
		wall := time.Since(t0).Seconds()
		for _, ss := range done {
			if ss.view.State == serve.StateDone {
				s.addLatency(ss.latency, float64(ss.view.VInsts), 1)
			}
		}
		s.cur.busy, s.cur.rawBusy = wall, wall
		s.endPass()
		if l != nil {
			loopBusyMS = g.quantumMS() - q0
		}
		return s
	})
	r.tr.setPhase("verify")
	distinct, all := r.verifySessions(r.main, g, dv.finished())
	r.publishCounts(&distinct)
	r.res.Metrics["fragstore.hit_ratio"] = ratio(all.StoreHits, all.StoreHits+all.StoreMisses)

	st, err := g.stats()
	if err != nil {
		return err
	}
	det := r.res.Detail
	det["serve_quantum_p50_ms"], det["serve_quantum_p99_ms"], det["serve_wait_p99_ms"] = st.QuantumP50ms, st.QuantumP99ms, st.WaitP99ms
	det["serve_interp_frac"] = ratio(all.InterpInsts, all.VInsts)
	det["sessions_verified"] = float64(all.Runs)
	if r.tr != nil {
		r.serveLayer(g, dv, r.loopWall, loopBusyMS)
		return r.replay(guests)
	}
	return nil
}

// rig is an in-process server behind a loopback listener.
type rig struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startRig() (*rig, error) {
	srv := serve.New(serve.Options{Workers: serveWorkers, QuantumVInsts: serveQuantum})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	g := &rig{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		g.hs.Serve(ln)
	}()
	return g, nil
}

// close stops the listener, waits for it, and stops the workers.
func (g *rig) close() {
	g.hs.Close()
	<-g.done
	g.srv.Close()
}

// stats reads the scheduler snapshot from /stats.
func (g *rig) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(g.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// quantumMS reads the scheduler's cumulative quantum time from the
// serve_quantum_ms histogram's _sum series on /metrics (0 if absent).
func (g *rig) quantumMS() float64 {
	resp, err := http.Get(g.url + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "serve_quantum_ms_sum") {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// session is one session as the client saw it.
type session struct {
	g       *guest
	id      string
	trace   int64
	t0      time.Time     // submit started
	submit  time.Duration // the accepted POST's round trip
	latency time.Duration // submit start until the client saw the session end
	polls   int
	view    serve.View
}

// driver is the closed-loop HTTP client.
type driver struct {
	r   *run
	rig *rig

	mu    sync.Mutex
	rng   *rand.Rand
	round []*guest // the current round's seeded order
	next  int      // sessions handed out so far
	done  []*session
}

func newDriver(r *run, g *rig, guests []*guest) *driver {
	return &driver{r: r, rig: g, rng: rand.New(rand.NewPCG(r.rng.Uint64(), 0)),
		round: append([]*guest(nil), guests...)}
}

// take hands out the next program, or reports that the client should
// stop submitting: n > 0 caps the sessions handed out by this drive
// (limit is the cap as a running total); n == 0 stops at the deadline.
// Programs come in rounds, each a fresh seeded permutation of the set.
func (dv *driver) take(n, limit int, deadline time.Time) (*guest, int, bool) {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	if (n > 0 && dv.next >= limit) || (n == 0 && !time.Now().Before(deadline)) {
		return nil, 0, false
	}
	k := dv.next % len(dv.round)
	if k == 0 {
		dv.rng.Shuffle(len(dv.round), func(i, j int) { dv.round[i], dv.round[j] = dv.round[j], dv.round[i] })
	}
	dv.next++
	return dv.round[k], dv.next - 1, true
}

// drive runs the closed loop on serveConns clients until n sessions
// have been handed out (n > 0) or the deadline passes, then lets every
// client wait out its outstanding sessions. It returns the sessions
// that ended during the call.
func (dv *driver) drive(lanes []*lane, n int, deadline time.Time) []*session {
	dv.mu.Lock()
	from, limit := len(dv.done), dv.next+n
	dv.mu.Unlock()
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			dv.client(l, n, limit, deadline)
		}(l)
	}
	wg.Wait()
	dv.mu.Lock()
	defer dv.mu.Unlock()
	return append([]*session(nil), dv.done[from:]...)
}

func (dv *driver) finished() []*session {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	return append([]*session(nil), dv.done...)
}

// client is one connection's loop.
func (dv *driver) client(l *lane, n, limit int, deadline time.Time) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: time.Minute}
	var window []*session
	for {
		for len(window) < serveWindow {
			g, i, ok := dv.take(n, limit, deadline)
			if !ok {
				break
			}
			if s := dv.submit(l, c, g, i); s != nil {
				window = append(window, s)
			}
		}
		if len(window) == 0 {
			return
		}
		s := window[0]
		window = window[1:]
		dv.await(l, c, s)
		dv.mu.Lock()
		dv.done = append(dv.done, s)
		dv.mu.Unlock()
	}
}

// submit posts g's image as the i-th session, retrying typed 429/503
// backpressure; every refused submission counts as a failure.
func (dv *driver) submit(l *lane, c *http.Client, g *guest, i int) *session {
	s := &session{g: g, trace: l.nextTrace(), t0: time.Now()}
	url := fmt.Sprintf("%s/sessions?tenant=tenant-%d", dv.rig.url, i%serveTenants)
	for attempt := 1; ; attempt++ {
		dv.r.attempt(1)
		t := time.Now()
		l.begin("http.submit")
		status, err := postJSON(c, url, g.image, &s.view)
		l.end(1)
		switch {
		case err == nil && status == http.StatusAccepted:
			s.id, s.submit = s.view.ID, time.Since(t)
			return s
		case err == nil && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && attempt < 20:
			dv.r.fail("submit %s: HTTP %d", g.kernel, status)
			time.Sleep(time.Duration(5*attempt) * time.Millisecond)
		case err == nil:
			dv.r.fail("submit %s: HTTP %d", g.kernel, status)
			return nil
		default:
			dv.r.fail("submit %s: %v", g.kernel, err)
			return nil
		}
	}
}

// postJSON posts body and decodes a 202 response into v.
func postJSON(c *http.Client, url string, body []byte, v any) (int, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// await long-polls s until it reaches a terminal state.
func (dv *driver) await(l *lane, c *http.Client, s *session) {
	l.setTrace(s.trace)
	url := fmt.Sprintf("%s/sessions/%s?wait=%d", dv.rig.url, s.id, pollWaitMS)
	for !s.view.State.Terminal() {
		l.begin("http.poll")
		err := getJSON(c, url, &s.view)
		l.end(1)
		s.polls++
		if err != nil {
			dv.r.fail("poll session %s: %v", s.id, err)
			break
		}
	}
	s.latency = time.Since(s.t0)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// verifySessions fetches every session's final checkpoint over HTTP and
// compares it with the oracle. Sessions of the same program must agree
// exactly on quanta and on the instruction and fragment counters. It
// returns the counts summed over one session per program (exact for a
// seed) and over all sessions.
func (r *run) verifySessions(l *lane, g *rig, sessions []*session) (distinct, all counts) {
	c := &http.Client{Timeout: time.Minute}
	type key struct{ quanta, iinsts, interp, frags uint64 }
	first := map[*guest]key{}
	for _, s := range sessions {
		r.attempt(1)
		if s.view.State != serve.StateDone {
			r.fail("session %s (%s seed %d) ended %s: %s", s.id, s.g.kernel, s.g.seed, s.view.State, s.view.Error)
			continue
		}
		raw, err := getBytes(c, g.url+"/sessions/"+s.id+"/checkpoint")
		if err != nil {
			r.fail("checkpoint of session %s: %v", s.id, err)
			continue
		}
		l.begin("checkpoint.decode")
		st, err := checkpoint.Decode(raw)
		l.end(float64(len(raw)))
		if err == nil {
			err = sameCheckpoint(s.g.want, st)
		}
		if err != nil {
			r.fail("session %s (%s seed %d): %v", s.id, s.g.kernel, s.g.seed, err)
			continue
		}
		k := key{uint64(s.view.Quanta), st.Counters["stats.TransIInsts"], st.Counters["stats.InterpInsts"], st.Counters["stats.Fragments"]}
		vinsts := st.Counters["stats.InterpInsts"] + st.Counters["stats.TransVInsts"]
		all.Runs++
		all.VInsts += vinsts
		all.InterpInsts += k.interp
		all.StoreHits += st.Counters["stats.StoreHits"]
		all.StoreMisses += st.Counters["stats.StoreMisses"]
		if f, ok := first[s.g]; ok {
			if f != k {
				r.fail("determinism: session %s (%s seed %d) counts %+v, earlier session %+v", s.id, s.g.kernel, s.g.seed, k, f)
			}
			continue
		}
		first[s.g] = k
		distinct.Runs++
		distinct.VInsts += vinsts
		distinct.Quanta += k.quanta
		distinct.TransIInsts += k.iinsts
		distinct.InterpInsts += k.interp
		distinct.Fragments += k.frags
	}
	return distinct, all
}

func getBytes(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return b, err
}

// serveLayer derives the serve and http per-layer metrics from a driven
// rig: wall and busyMS are the traced drive's wall time and the quantum
// time the scheduler accumulated during it. Times are at the reference
// speed on a calibrated workload.
func (r *run) serveLayer(g *rig, dv *driver, wall time.Duration, busyMS float64) {
	st, err := g.stats()
	if err != nil {
		r.fail("serve stats: %v", err)
	}
	sessions := dv.finished()
	var quanta, polls, vinsts float64
	var submit []float64
	for _, s := range sessions {
		quanta += float64(s.view.Quanta)
		polls += float64(s.polls)
		vinsts += float64(s.view.VInsts)
		submit = append(submit, float64(s.submit.Nanoseconds())/1e6)
	}
	n := float64(len(sessions))
	ref := r.cal.runScale()
	m := r.res.Metrics
	m["serve.quantum_p50_ms"] = st.QuantumP50ms * ref
	m["serve.quantum_p99_ms"] = st.QuantumP99ms * ref
	m["serve.wait_p99_ms"] = st.WaitP99ms * ref
	m["serve.quanta_per_session"] = quanta / n
	m["serve.ns_per_vinst"] = g.quantumMS() * 1e6 / vinsts * ref
	m["serve.worker_busy_frac"] = busyMS / (serveWorkers * float64(wall.Nanoseconds()) / 1e6)
	m["http.submit_p50_ms"] = quantile(submit, 0.50) * ref
	m["http.submit_p99_ms"] = quantile(submit, 0.99) * ref
	m["http.polls_per_session"] = polls / n
}
