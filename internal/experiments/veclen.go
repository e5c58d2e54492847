package experiments

import (
	"specvec/internal/emu"
	"specvec/internal/obs"
)

// functionalTrace returns the bench's shared trace entry, recording it
// with a pure functional pass (no timing simulation) when no entry exists
// yet. Experiments that only need the dynamic stream (VecLen) share the
// same recording that timing sweeps replay. The error is non-nil only
// when the benchmark cannot be simulated at all (program construction
// failed); a failed recording propagates through tc.err — wrapping
// ErrRecordingUnusable, never a silent nil — and callers fall back to
// live emulation of tc.prog.
func (r *Runner) functionalTrace(bench string) (*traceCall, error) {
	tc, leader, err := r.sharedTrace(bench)
	if err != nil {
		return nil, err
	}
	// The "trace-load" and "record" spans parent directly under whatever
	// span the job's context carries — a stream-only experiment has no
	// per-run span of its own.
	if sc := obs.FromContext(r.ctx); leader && !r.loadShared(bench, tc, sc) {
		r.recordShared(bench, tc, sc)
	}
	if tc.prog == nil {
		return tc, tc.err
	}
	return tc, nil
}

// meanRunLength measures, per static load, the lengths of maximal
// constant-stride runs over the benchmark's dynamic stream, returning
// their mean (runs of length >= 2 only: a "run" of one repeat is not a
// pattern). The stream comes from the runner's shared trace when
// available; otherwise the benchmark is emulated functionally.
func meanRunLength(r *Runner, bench string) (float64, error) {
	type state struct {
		lastAddr uint64
		stride   int64
		runLen   int
		seen     bool
		haveStr  bool
	}
	loads := map[uint64]*state{}
	var totalLen, runs uint64

	closeRun := func(st *state) {
		if st.runLen >= 2 {
			totalLen += uint64(st.runLen)
			runs++
		}
		st.runLen = 0
	}
	observe := func(d *emu.DynInst) {
		if !d.Inst.IsLoad() {
			return
		}
		st := loads[d.PC]
		if st == nil {
			st = &state{}
			loads[d.PC] = st
		}
		switch {
		case !st.seen:
			st.seen = true
		case !st.haveStr:
			st.stride = int64(d.EffAddr - st.lastAddr)
			st.haveStr = true
			st.runLen = 2
		default:
			if s := int64(d.EffAddr - st.lastAddr); s == st.stride {
				st.runLen++
			} else {
				closeRun(st)
				st.stride = s
				st.runLen = 2
			}
		}
		st.lastAddr = d.EffAddr
	}

	budget := r.opts.Scale
	if err := r.eachRecord(bench, budget, observe); err != nil {
		return 0, err
	}
	for _, st := range loads {
		closeRun(st)
	}
	if runs == 0 {
		return 0, nil
	}
	return float64(totalLen) / float64(runs), nil
}

// eachRecord yields the first budget records of the benchmark's dynamic
// stream, from the shared trace when sharing is enabled and the recording
// usable, from live functional emulation otherwise. Both paths produce
// the identical sequence: emulation stops at halt or budget, and a trace
// ends with its halt record.
func (r *Runner) eachRecord(bench string, budget int, yield func(*emu.DynInst)) error {
	if !r.opts.NoSharedTraces {
		tc, err := r.functionalTrace(bench)
		if err != nil {
			return err
		}
		if tc.tr != nil && (tc.tr.Halted() || tc.tr.Len() >= budget) {
			var d emu.DynInst
			for i, n := 0, min(tc.tr.Len(), budget); i < n; i++ {
				tc.tr.Record(i, &d)
				yield(&d)
			}
			return nil
		}
		// Unusable recording: emulate the shared program live.
		m, err := emu.New(tc.prog)
		if err != nil {
			return err
		}
		return emulateRecords(m, budget, yield)
	}
	b, err := r.lookup(bench)
	if err != nil {
		return err
	}
	m, err := emu.New(b.Build(r.opts.Scale, r.opts.Seed))
	if err != nil {
		return err
	}
	return emulateRecords(m, budget, yield)
}

func emulateRecords(m *emu.Machine, budget int, yield func(*emu.DynInst)) error {
	for !m.Halted() && budget > 0 {
		d := m.Step()
		budget--
		yield(&d)
	}
	return nil
}
