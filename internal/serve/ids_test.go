package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// getJSON decodes the JSON body of GET url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// checkIdentity checks that the server at url lists exactly the guests
// ids on /vms, that /vms/{id} and /sessions/{id} name the same guest,
// and that the process-level series render once, without labels.
func checkIdentity(t *testing.T, url string, ids []string) {
	t.Helper()
	var rows []struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	getJSON(t, url+"/vms", &rows)
	if len(rows) != len(ids) {
		t.Fatalf("/vms lists %d VMs %+v, want the %d guests %v", len(rows), rows, len(ids), ids)
	}
	for i, id := range ids {
		if rows[i].ID != id || rows[i].Name == "scheduler" {
			t.Errorf("/vms row %d = %+v, want guest %s", i, rows[i], id)
		}
		var view View
		getJSON(t, url+"/sessions/"+id, &view)
		var vm struct {
			ID       string `json:"id"`
			Workload string `json:"workload"`
			Store    *struct {
				Entries int `json:"entries"`
			} `json:"store"`
			Shards []struct {
				Entries int `json:"entries"`
			} `json:"shards"`
		}
		getJSON(t, url+"/vms/"+id, &vm)
		if vm.ID != view.ID || vm.Workload != view.Name {
			t.Errorf("/vms/%s names %s %q, /sessions/%s names %s %q",
				id, vm.ID, vm.Workload, id, view.ID, view.Name)
		}
		if vm.Store == nil || len(vm.Shards) == 0 {
			t.Errorf("/vms/%s lacks the store or shard section", id)
		}
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	found := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, name := range []string{"telemetry_sessions", "serve_admitted", "fragstore_entries"} {
			if strings.HasPrefix(line, name+"{") {
				t.Errorf("/metrics: %s carries labels: %s", name, line)
			}
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				found[name] = v
			}
		}
	}
	if got := found["telemetry_sessions"]; got != strconv.Itoa(len(ids)) {
		t.Errorf("telemetry_sessions = %q, want %d", got, len(ids))
	}
	for _, name := range []string{"serve_admitted", "fragstore_entries"} {
		if _, ok := found[name]; !ok {
			t.Errorf("/metrics has no unlabelled %s line", name)
		}
	}
}

// submitHTTP admits a workload over POST /sessions.
func submitHTTP(t *testing.T, url, workload string) View {
	t.Helper()
	resp, err := http.Post(url+"/sessions?workload="+workload, "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", workload, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestOneIDPerGuest checks that a guest has one identity on the
// operator surface, /sessions/{id} and /vms/{id} alike, before a drain
// and, for the drained guest, on the successor server that resumes it.
func TestOneIDPerGuest(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 2, QuantumVInsts: 5_000, SpillDir: dir})
	defer s.Close()
	// Hold vpr's first quantum until the drain begins, so it is still
	// in flight when the drain lands.
	s.hookQuantum = func(sess *Session) {
		for sess.Name == "vpr" && !s.Draining() {
			time.Sleep(time.Millisecond)
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	gap := submitHTTP(t, srv.URL, "gap")
	vpr := submitHTTP(t, srv.URL, "vpr")
	if gap.ID != "1" || vpr.ID != "2" {
		t.Fatalf("session IDs %q, %q, want 1, 2", gap.ID, vpr.ID)
	}
	sess, err := s.Session(gap.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sess, 30*time.Second)
	checkIdentity(t, srv.URL, []string{gap.ID, vpr.ID})

	if spilled, err := s.Drain(); err != nil || spilled != 1 {
		t.Fatalf("drain = %d, %v, want 1 session spilled", spilled, err)
	}
	s2 := New(Options{Workers: 2, QuantumVInsts: 5_000, SpillDir: dir})
	defer s2.Close()
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	if resumed, corrupt, err := s2.Resume(dir); err != nil || resumed != 1 || corrupt != 0 {
		t.Fatalf("resume = (%d, %d, %v), want (1, 0, nil)", resumed, corrupt, err)
	}
	views := s2.SessionViews()
	if len(views) != 1 || views[0].ID != "1" || views[0].Name != "vpr" {
		t.Fatalf("successor sessions = %+v, want vpr as 1", views)
	}
	rsess, err := s2.Session("1")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rsess, 60*time.Second)
	if st := rsess.StateNow(); st != StateDone {
		t.Fatalf("resumed vpr: state %s: %s", st, rsess.Err())
	}
	checkIdentity(t, srv2.URL, []string{"1"})
}
