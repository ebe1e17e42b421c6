// Package simclock is a deterministic discrete-event scheduler: a virtual
// clock plus a priority queue of callbacks. Ties in firing time are broken
// by insertion order, so a simulation run is reproducible byte-for-byte.
package simclock

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback.
type event struct {
	at    float64
	seq   uint64
	fire  func()
	index int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at < h[j].at {
		return true
	}
	if h[i].at > h[j].at {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is the simulation driver.
type Clock struct {
	now    float64
	seq    uint64
	events eventHeap
	fired  int
}

// New creates a clock at time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Fired returns the number of events processed so far.
func (c *Clock) Fired() int { return c.fired }

// At schedules fn at absolute virtual time t (must not precede Now).
func (c *Clock) At(t float64, fn func()) error {
	if t < c.now {
		return fmt.Errorf("simclock: scheduling at %.9f before now %.9f", t, c.now)
	}
	if fn == nil {
		return fmt.Errorf("simclock: nil event callback")
	}
	c.seq++
	heap.Push(&c.events, &event{at: t, seq: c.seq, fire: fn})
	return nil
}

// After schedules fn delay seconds from now.
func (c *Clock) After(delay float64, fn func()) error {
	if delay < 0 {
		return fmt.Errorf("simclock: negative delay %.9f", delay)
	}
	return c.At(c.now+delay, fn)
}

// Run fires events in order until none remain or maxEvents is exceeded
// (0 = no limit). Returns an error on runaway simulations.
func (c *Clock) Run(maxEvents int) error {
	for len(c.events) > 0 {
		if maxEvents > 0 && c.fired >= maxEvents {
			return fmt.Errorf("simclock: exceeded %d events at t=%.6f (runaway simulation?)", maxEvents, c.now)
		}
		e := heap.Pop(&c.events).(*event)
		c.now = e.at
		c.fired++
		e.fire()
	}
	return nil
}
