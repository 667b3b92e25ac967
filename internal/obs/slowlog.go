package obs

import (
	"sort"
	"sync"
	"time"
)

// SlowLogEntry is one completed request in the slow-query log.
type SlowLogEntry struct {
	RequestID string    `json:"request_id"`
	System    string    `json:"system"`
	Query     string    `json:"query"`
	When      time.Time `json:"when"`
	Status    int       `json:"status"`
	WaitMs    float64   `json:"wait_ms"`
	ExecMs    float64   `json:"exec_ms"`
	Trace     SpanView  `json:"trace"`
	// Stack is the goroutine trace of a request whose execution
	// panicked; empty otherwise.
	Stack string `json:"stack,omitempty"`
}

// SlowLog is a bounded in-memory top-K log of the slowest requests by
// execution time, each with its span tree. Safe for concurrent Observe
// and Top; memory is bounded by K entries regardless of traffic.
type SlowLog struct {
	mu      sync.Mutex
	k       int
	entries []SlowLogEntry // sorted by ExecMs descending
}

// NewSlowLog returns a log keeping the k slowest requests; k below 1 is
// clamped to 1.
func NewSlowLog(k int) *SlowLog {
	if k < 1 {
		k = 1
	}
	return &SlowLog{k: k}
}

// Observe offers a completed request to the log; it is kept only if it
// ranks among the K slowest seen so far.
func (l *SlowLog) Observe(e SlowLogEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == l.k && e.ExecMs <= l.entries[l.k-1].ExecMs {
		return
	}
	l.entries = append(l.entries, e)
	sort.SliceStable(l.entries, func(i, j int) bool {
		return l.entries[i].ExecMs > l.entries[j].ExecMs
	})
	if len(l.entries) > l.k {
		l.entries = l.entries[:l.k]
	}
}

// Top returns the current entries, slowest first.
func (l *SlowLog) Top() []SlowLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SlowLogEntry(nil), l.entries...)
}
