package server

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/wave"
)

// State is a job lifecycle state. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled              (cancelled or drained before start)
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Result is the deterministic outcome of a job. It carries no wall-clock
// or server-state fields: marshaling it for identical specs yields
// byte-identical output regardless of server load — the serving-path
// determinism contract, enforced by the e2e tests.
type Result struct {
	Kind string `json:"kind"`

	Load   *wave.Result       `json:"load,omitempty"`
	Closed *wave.ClosedResult `json:"closed,omitempty"`

	// Stats is the full simulator counter fingerprint.
	Stats *wave.Stats `json:"stats,omitempty"`
}

// Progress is one line of a job's NDJSON stream. Type selects the shape:
// "snapshot" (periodic progress) or "done" (terminal line, carrying State
// and Result/Error).
type Progress struct {
	Type string `json:"type"`

	Cycle        int64           `json:"cycle,omitempty"`
	InFlight     int             `json:"in_flight,omitempty"`
	CyclesPerSec float64         `json:"cycles_per_sec,omitempty"`
	Stats        *stats.Snapshot `json:"stats,omitempty"`

	State  State           `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Job is one submitted simulation with its lifecycle state, progress
// backlog and (once terminal) result bytes. All mutation goes through the
// methods below; change is closed-and-replaced on every update so any
// number of streamers can wait without polling.
type Job struct {
	ID   string
	Spec Spec

	// cacheKey is the spec's content address (Spec.cacheKey), set once at
	// submit before the job is shared and immutable after — the handle the
	// result cache and single-flight table dedupe on.
	cacheKey string

	rateBits atomic.Uint64 // float64 bits: cycles/s over the last interval

	mu        sync.Mutex
	state     State
	errMsg    string
	result    []byte   // marshaled once at completion; served verbatim
	backlog   [][]byte // NDJSON progress lines, in publish order
	change    chan struct{}
	cancelRun context.CancelFunc // set while running
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(id string, spec Spec, now time.Time) *Job {
	return &Job{ID: id, Spec: spec, state: StateQueued,
		change: make(chan struct{}), submitted: now}
}

// notifyLocked wakes every waiter; callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.change)
	j.change = make(chan struct{})
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Rate returns the last-published simulation rate in cycles/s (0 unless
// running).
func (j *Job) Rate() float64 { return math.Float64frombits(j.rateBits.Load()) }

func (j *Job) setRate(v float64) { j.rateBits.Store(math.Float64bits(v)) }

// publish appends one progress line and wakes streamers.
func (j *Job) publish(p Progress) {
	line, err := json.Marshal(p)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.backlog = append(j.backlog, line)
	j.notifyLocked()
	j.mu.Unlock()
}

// start transitions queued → running; false means the job was cancelled
// while waiting and must not run.
func (j *Job) start(cancel context.CancelFunc, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancelRun = cancel
	j.started = now
	j.notifyLocked()
	return true
}

// finish records the terminal state; later calls are ignored.
func (j *Job) finish(st State, result []byte, errMsg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.result = result
	j.errMsg = errMsg
	j.finished = now
	j.cancelRun = nil
	j.setRate(0)
	j.notifyLocked()
}

// requestCancel asks the job to stop. A queued job goes terminal
// immediately; a running job has its context cancelled and stops at the
// next cycle boundary. Returns the state observed before acting and
// whether anything was done (false once terminal).
func (j *Job) requestCancel(now time.Time) (State, bool) {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = "cancelled before start"
		j.finished = now
		j.setRate(0)
		j.notifyLocked()
		j.mu.Unlock()
		return StateQueued, true
	case StateRunning:
		cancel := j.cancelRun
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return StateRunning, true
	default:
		st := j.state
		j.mu.Unlock()
		return st, false
	}
}

// since returns the progress lines from index n on, plus the state needed
// to decide whether the stream is over. ch is closed on the next update.
func (j *Job) since(n int) (lines [][]byte, st State, result []byte, errMsg string, ch chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < len(j.backlog) {
		lines = j.backlog[n:]
	}
	return lines, j.state, j.result, j.errMsg, j.change
}

// View is the JSON document served for a job by the HTTP API.
type View struct {
	ID           string          `json:"id"`
	Kind         string          `json:"kind"`
	State        State           `json:"state"`
	Error        string          `json:"error,omitempty"`
	Submitted    time.Time       `json:"submitted"`
	Started      *time.Time      `json:"started,omitempty"`
	Finished     *time.Time      `json:"finished,omitempty"`
	Snapshots    int             `json:"snapshots"`
	CyclesPerSec float64         `json:"cycles_per_sec,omitempty"`
	Spec         Spec            `json:"spec"`
	Result       json.RawMessage `json:"result,omitempty"`
}

// view renders the job; withResult embeds the result bytes when terminal.
func (j *Job) view(withResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.ID, Kind: j.Spec.Kind, State: j.state, Error: j.errMsg,
		Submitted: j.submitted, Snapshots: len(j.backlog),
		CyclesPerSec: j.Rate(), Spec: j.Spec,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult && j.result != nil {
		v.Result = j.result
	}
	return v
}
