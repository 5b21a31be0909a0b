package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run from the
// benchmark's side of the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`       // index of the enclosing span; -1 for none
	ID     string `json:"id,omitempty"` // job or cell the span belongs to
	N      int64  `json:"n"`            // units of work the span covers
}

// recorder keeps a run's spans in memory; write saves them when the run
// ends. Spans are coarse (one per job, cell or batch of layer calls), so a
// mutex is cheap enough for the goroutines that share it (the sim pool's
// runner records from its own).
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(name string, start, end time.Time, parent int, id string, n int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Nanoseconds(),
		End: end.Sub(r.t0).Nanoseconds(), Parent: parent, ID: id, N: n})
	return len(r.spans) - 1
}

// begin opens a span whose children are recorded before it ends.
func (r *recorder) begin(name string, parent int, id string) int {
	now := time.Now()
	return r.add(name, now, now, parent, id, 0)
}

// end closes a span opened by begin, covering n units of work.
func (r *recorder) end(i int, n int64) {
	now := time.Now().Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
	r.spans[i].N = n
}

// timed records fn as one span covering n units of work.
func (r *recorder) timed(name string, parent int, id string, n int64, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(name, t0, t1, parent, id, n)
	return t1.Sub(t0)
}

// total returns the summed duration, units of work and count of the spans
// named name.
func (r *recorder) total(name string) (dur time.Duration, n int64, count int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name {
			dur += time.Duration(s.End - s.Start)
			n += s.N
			count++
		}
	}
	return dur, n, count
}

// nsPer returns the spans' summed duration per unit of work in ns, or 0
// when no span of that name covered any work.
func (r *recorder) nsPer(name string) float64 {
	dur, n, _ := r.total(name)
	if n == 0 {
		return 0
	}
	return float64(dur.Nanoseconds()) / float64(n)
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
