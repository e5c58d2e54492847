package experiments

import (
	"specvec/internal/emu"
	"specvec/internal/obs"
)

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
// stream, from the shared trace when the recording is usable, from live
// functional emulation of the shared program otherwise. Both produce the
// identical sequence: emulation stops at halt or budget, and a trace
// ends with its halt record. The "trace-load" and "record" spans parent
// directly under whatever span the job's context carries — a
// stream-only experiment has no per-run span of its own.
func (r *Runner) eachRecord(bench string, budget int, yield func(*emu.DynInst)) error {
	tc, err := r.resolveTrace(bench, obs.FromContext(r.ctx))
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
	m, err := emu.New(tc.prog)
	if err != nil {
		return err
	}
	for ; !m.Halted() && budget > 0; budget-- {
		d := m.Step()
		yield(&d)
	}
	return nil
}
