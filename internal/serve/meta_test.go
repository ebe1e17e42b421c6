package serve

import (
	"fmt"
	"testing"

	"repro/internal/hardware"
	"repro/internal/online"
)

// TestMetaMatchesEngineStats: after a downshift, concurrent streams'
// final chunks report the engine's downshift count and peak batch.
// Values only grow, and the last stream to finish reads them after the
// last decode step, so the largest reported peak is the engine's.
func TestMetaMatchesEngineStats(t *testing.T) {
	const clients = 4
	srv, ts := newTestServer(t, func(o *Options) {
		o.Engine.GPU = hardware.V100
		o.Engine.Bits = 16
		o.Engine.MaxNew = 120
		o.Engine.MaxBatch = 64
		o.Engine.Downshift = true
		o.StepHold = 0
	})
	sculpt(t, srv, func(e *online.Engine) error { return pressureWave(e, 8) })
	streams := streamClients(t, ts.URL, clients, 16)
	es := srv.EngineStats()
	if es.Downshifts != 1 || es.PeakBatch < 1 {
		t.Fatalf("engine stats %+v, want one downshift and a positive peak batch", es)
	}
	peak := 0
	for i, st := range streams {
		m := st.final(t).LLMPQ
		if m == nil {
			t.Fatalf("client %d: final chunk carried no llmpq block", i)
		}
		if m.Downshifts != es.Downshifts {
			t.Errorf("client %d: llmpq.downshifts %d, engine %d", i, m.Downshifts, es.Downshifts)
		}
		if m.PeakBatch > es.PeakBatch {
			t.Errorf("client %d: llmpq.peak_batch %d above the engine's %d", i, m.PeakBatch, es.PeakBatch)
		}
		peak = max(peak, m.PeakBatch)
	}
	if peak != es.PeakBatch {
		t.Errorf("largest llmpq.peak_batch %d, engine %d", peak, es.PeakBatch)
	}
}

// TestMetaCostIndependentOfHistory: building a response's llmpq block
// allocates the same after 1,000 finished requests as after none.
func TestMetaCostIndependentOfHistory(t *testing.T) {
	srv, _ := newTestServer(t, func(o *Options) { o.StepHold = 0 })
	var req *online.Request
	sculpt(t, srv, func(e *online.Engine) error {
		var err error
		req, err = e.Submit(10, 4)
		return err
	})
	fresh := testing.AllocsPerRun(50, func() { srv.meta(req) })
	sculpt(t, srv, func(e *online.Engine) error {
		batch := srv.opts.Engine.MaxBatch
		for served := 0; served < 1000; served += batch {
			for k := 0; k < batch; k++ {
				if _, err := e.Submit(10, 4); err != nil {
					return err
				}
			}
			for e.Busy() {
				if _, err := e.StepOnce(); err != nil {
					return err
				}
			}
		}
		if done := e.Stats().Completed; done < 1000 {
			return fmt.Errorf("only %d requests finished", done)
		}
		return nil
	})
	if aged := testing.AllocsPerRun(50, func() { srv.meta(req) }); aged != fresh {
		t.Errorf("meta allocates %.0f times after 1,000 finished requests, %.0f on a fresh engine", aged, fresh)
	}
}
