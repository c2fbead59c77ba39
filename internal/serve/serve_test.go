package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// smallConfig keeps sessions fast: capacity-sized structures dominate
// setup cost, so tests shrink the platform, not the workload.
func smallConfig() ConfigSpec {
	return ConfigSpec{NodeDRAMBytes: 256 << 20, CXLCapacityBytes: 512 << 20, Cores: 2}
}

// fastSpec completes in tens of milliseconds of wall time.
func fastSpec() Spec {
	return Spec{
		Config: smallConfig(),
		Workload: WorkloadSpec{
			RPS:       200,
			Duration:  Duration(300 * time.Millisecond),
			Functions: []string{"Float"},
			Seed:      7,
		},
	}
}

// slowSpec paces the replay so slowly it cannot finish inside a test:
// the session parks at its first telemetry tick until canceled.
func slowSpec() Spec {
	s := fastSpec()
	s.Workload.Duration = Duration(2 * time.Second)
	s.Session.Pace = 0.002
	return s
}

func waitTerminal(t *testing.T, s *Session, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !s.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in state %s", s.ID, s.State())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitRunning(t *testing.T, s *Session, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for s.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("session %s never left the queue", s.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// frameHead is the decoded prefix shared by all frame types.
type frameHead struct {
	Type   string `json:"type"`
	Reason string `json:"reason"`
	Seq    int64  `json:"seq"`
	Frames int    `json:"frames"`
}

func decodeFrames(t *testing.T, s *Session) []frameHead {
	t.Helper()
	raw, _, _ := s.next(0)
	out := make([]frameHead, 0, len(raw))
	for i, b := range raw {
		var h frameHead
		if err := json.Unmarshal(b, &h); err != nil {
			t.Fatalf("frame %d is not JSON: %v (%q)", i, err, b)
		}
		out = append(out, h)
	}
	return out
}

func drainNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = m.Drain(ctx)
}

func TestSessionLifecycle(t *testing.T) {
	timeoutSpec := fastSpec()
	timeoutSpec.Session.Timeout = Duration(time.Millisecond)

	cases := []struct {
		name       string
		spec       Spec
		cancelMid  bool // cancel once the session is running
		wantState  State
		wantReason string
		wantReport bool
	}{
		{"complete", fastSpec(), false, StateDone, ReasonComplete, true},
		{"cancel-mid-run", slowSpec(), true, StateCanceled, ReasonCanceled, true},
		{"timeout", timeoutSpec, false, StateTimeout, ReasonTimeout, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(Config{MaxSessions: 1})
			defer drainNow(t, m)
			s, err := m.Submit(tc.spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if tc.cancelMid {
				waitRunning(t, s, 10*time.Second)
				if !m.Cancel(s.ID, ReasonCanceled) {
					t.Fatal("Cancel found no live session")
				}
			}
			waitTerminal(t, s, 30*time.Second)
			if got := s.State(); got != tc.wantState {
				t.Fatalf("state = %s, want %s", got, tc.wantState)
			}
			fs := decodeFrames(t, s)
			if len(fs) < 2 || fs[0].Type != "hello" {
				t.Fatalf("frame log should open with hello: %+v", fs)
			}
			last := fs[len(fs)-1]
			if last.Type != "eof" || last.Reason != tc.wantReason {
				t.Fatalf("last frame = %+v, want eof/%s", last, tc.wantReason)
			}
			if last.Frames != len(fs) {
				t.Fatalf("eof frame count %d, want %d", last.Frames, len(fs))
			}
			if (s.Report() != nil) != tc.wantReport {
				t.Fatalf("report presence = %v, want %v", s.Report() != nil, tc.wantReport)
			}
			if tc.wantState == StateDone && s.Report().Interrupted {
				t.Fatal("completed run marked interrupted")
			}
			if tc.wantState != StateDone && s.Report() != nil && !s.Report().Interrupted {
				t.Fatal("stopped run not marked interrupted")
			}
		})
	}
}

func TestAdmissionControl(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, MaxQueue: 1})
	defer drainNow(t, m)

	s1, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit s1: %v", err)
	}
	s2, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit s2: %v", err)
	}
	if s2.State() != StateQueued {
		t.Fatalf("s2 state = %s, want queued", s2.State())
	}
	if m.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1", m.QueueDepth())
	}
	if _, err := m.Submit(slowSpec()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third submit error = %v, want ErrSaturated", err)
	}

	// Cancel the queued session before its slot arrives: it must
	// still terminate with canceled frames when promoted.
	m.Cancel(s2.ID, ReasonCanceled)
	m.Cancel(s1.ID, ReasonCanceled)
	waitTerminal(t, s1, 30*time.Second)
	waitTerminal(t, s2, 30*time.Second)
	for _, s := range []*Session{s1, s2} {
		if s.State() != StateCanceled {
			t.Fatalf("%s state = %s, want canceled", s.ID, s.State())
		}
		fs := decodeFrames(t, s)
		if last := fs[len(fs)-1]; last.Type != "eof" || last.Reason != ReasonCanceled {
			t.Fatalf("%s last frame = %+v, want eof/canceled", s.ID, last)
		}
	}
}

func TestQueuePromotion(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, MaxQueue: 2})
	defer drainNow(t, m)
	s1, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatalf("Submit s1: %v", err)
	}
	s2, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatalf("Submit s2: %v", err)
	}
	waitTerminal(t, s1, 30*time.Second)
	waitTerminal(t, s2, 30*time.Second)
	for _, s := range []*Session{s1, s2} {
		if s.State() != StateDone || s.Report() == nil {
			t.Fatalf("%s state = %s report %v, want done with report", s.ID, s.State(), s.Report())
		}
	}
}

func TestDrain(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, MaxQueue: 1})
	running, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	queued, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	waitRunning(t, running, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err = m.Drain(ctx)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain error = %v", err)
	}
	if !m.Draining() {
		t.Fatal("manager not draining after Drain")
	}
	if _, err := m.Submit(fastSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	for _, s := range []*Session{running, queued} {
		if !s.State().Terminal() {
			t.Fatalf("%s not terminal after Drain: %s", s.ID, s.State())
		}
		fs := decodeFrames(t, s)
		if last := fs[len(fs)-1]; last.Type != "eof" || last.Reason != ReasonShutdown {
			t.Fatalf("%s last frame = %+v, want eof/shutdown", s.ID, last)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown design", func(s *Spec) { s.Workload.Design = "QEMU" }},
		{"unknown function", func(s *Spec) { s.Workload.Functions = []string{"nope"} }},
		{"negative rps", func(s *Spec) { s.Workload.RPS = -1 }},
		{"excess rps", func(s *Spec) { s.Workload.RPS = MaxRPS + 1 }},
		{"negative weight", func(s *Spec) { s.Workload.Weights = map[string]float64{"Float": -1} }},
		{"negative pace", func(s *Spec) { s.Session.Pace = -1 }},
		{"negative timeout", func(s *Spec) { s.Session.Timeout = Duration(-time.Second) }},
		{"over virtual cap", func(s *Spec) { s.Workload.Duration = Duration(time.Hour) }},
	}
	m := NewManager(Config{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := fastSpec()
			tc.mut(&spec)
			if _, err := m.Submit(spec); err == nil {
				t.Fatal("Submit accepted an invalid spec")
			}
		})
	}
}

// hostileSpecs sets one size knob past its admission cap each. The
// 2^60-byte node would be cheap to describe and impossible to build.
var hostileSpecs = []struct {
	field string
	mut   func(*ConfigSpec)
}{
	{"config.nodes", func(c *ConfigSpec) { c.Nodes = MaxNodes + 1 }},
	{"config.cores", func(c *ConfigSpec) { c.Cores = MaxCores + 1 }},
	{"config.checkpoint_lanes", func(c *ConfigSpec) { c.CheckpointLanes = MaxLanes + 1 }},
	{"config.restore_lanes", func(c *ConfigSpec) { c.RestoreLanes = MaxLanes + 1 }},
	{"config.workers", func(c *ConfigSpec) { c.Workers = MaxWorkers + 1 }},
	{"config.node_dram_bytes", func(c *ConfigSpec) { c.NodeDRAMBytes = 1 << 60 }},
	{"config.cxl_capacity_bytes", func(c *ConfigSpec) { c.CXLCapacityBytes = MaxCXLCapacityBytes + 1 }},
	{"config.replication.devices", func(c *ConfigSpec) { c.Replication.Devices = MaxDevices + 1 }},
	{"config.telemetry.series_cap", func(c *ConfigSpec) { c.Telemetry.SeriesCap = 1 << 40 }},
	{"config.nodes", func(c *ConfigSpec) { c.Nodes = -1 }},
}

// TestHostileSpecRejectedBeforeSession proves admission bounds every
// size knob: each hostile spec fails Submit with an error naming its
// field, and the manager never creates, queues or counts a session for
// it — nothing sized from the spec is built. Over HTTP the same specs
// answer 400.
func TestHostileSpecRejectedBeforeSession(t *testing.T) {
	m := NewManager(Config{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	for _, tc := range hostileSpecs {
		spec := fastSpec()
		tc.mut(&spec.Config)
		s, err := m.Submit(spec)
		if err == nil || s != nil {
			t.Fatalf("%s: Submit accepted a hostile spec", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
		resp := postSpec(t, srv.Client(), srv.URL+"/v1/sessions", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST status %d, want 400", tc.field, resp.StatusCode)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seq != 0 || m.accepted != 0 || len(m.byID) != 0 || len(m.queue) != 0 || m.running != 0 {
		t.Fatalf("hostile specs left state: seq=%d accepted=%d sessions=%d queued=%d running=%d",
			m.seq, m.accepted, len(m.byID), len(m.queue), m.running)
	}
}

// TestValidateAcceptsCaps checks every cap is inclusive: a knob set to
// its maximum passes validation.
func TestValidateAcceptsCaps(t *testing.T) {
	spec := fastSpec()
	spec.Config = ConfigSpec{
		Nodes: MaxNodes, Cores: MaxCores, CheckpointLanes: MaxLanes, RestoreLanes: MaxLanes,
		Workers: MaxWorkers, NodeDRAMBytes: MaxNodeDRAMBytes, CXLCapacityBytes: MaxCXLCapacityBytes,
		Replication: ReplicationSpec{Devices: MaxDevices},
		Telemetry:   TelemetrySpec{SeriesCap: MaxSeriesCap},
	}
	if err := spec.Validate(0); err != nil {
		t.Fatalf("spec at every cap rejected: %v", err)
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"150ms"`), &d); err != nil || time.Duration(d) != 150*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1500000`), &d); err != nil || time.Duration(d) != 1500*time.Microsecond {
		t.Fatalf("numeric form: %v %v", d, err)
	}
	b, err := json.Marshal(Duration(2 * time.Second))
	if err != nil || string(b) != `"2s"` {
		t.Fatalf("marshal: %s %v", b, err)
	}
	if err := json.Unmarshal([]byte(`"nope"`), &d); err == nil {
		t.Fatal("accepted a malformed duration")
	}
}
