package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval: a call from the benchmark into one
// layer's exported entry point.  Times are offsets from the tracer's
// epoch.  Parent is -1 for a root; Run groups the spans of one pass.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is
// the untraced mode: start returns -1 and stop only measures.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(parent int, run, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// stop closes the span and returns its duration (0 when untraced).
func (t *tracer) stop(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time range [lo, hi).
type interval struct{ lo, hi time.Duration }

// unionLength returns the total length covered by the intervals, each
// clipped to [lo, hi): overlapping children (concurrent requests) are
// counted once.
func unionLength(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	end := lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of the closed
// spans in run: a span's duration minus the part of it its children
// cover.  Concurrent spans of one layer each count their own self
// time, so a layer's total can exceed wall time.
func selfTimes(spans []span, run string) map[string]time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Run == run && s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Run != run || s.End < 0 {
			continue
		}
		out[layerOf(s.Name)] += s.End - s.Start - unionLength(children[s.ID], s.Start, s.End)
	}
	return out
}

// rootSpan returns the single root span of run.
func rootSpan(spans []span, run string) (span, error) {
	var roots []span
	for _, s := range spans {
		if s.Run == run && s.Parent < 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) != 1 || roots[0].End < 0 {
		return span{}, fmt.Errorf("trace: run %q has %d roots, want one closed root", run, len(roots))
	}
	return roots[0], nil
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns num/base, or 0 for an empty base.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
