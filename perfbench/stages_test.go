package main

import (
	"math"
	"testing"
)

// cannedTop is `go tool pprof -top -lines` output in the shape the
// traced run parses: scaled units, an "(inline)" suffix, a generic shape
// whose name contains spaces, runtime GC and an unmapped function.
const cannedTop = `File: perfbench-bin
Type: cpu
Duration: 10.2s, Total samples = 2s (19.61%)
Active filters:
   focus=pipeline\.\(\*Simulator\)\.runUntil|runtime\.gcBgMarkWorker
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.40s 20.00% 20.00%      0.50s 25.00%  specvec/internal/pipeline.(*Simulator).decode specvec/internal/pipeline/decode.go:25
     300ms 15.00% 35.00%      300ms 15.00%  specvec/internal/pipeline.(*Simulator).compactIQ specvec/internal/pipeline/issue.go:120 (inline)
     0.20s 10.00% 45.00%      0.20s 10.00%  specvec/internal/core.(*jstack[go.shape.struct { Seq uint64 }]).push specvec/internal/core/journal.go:40
     0.20s 10.00% 55.00%      0.20s 10.00%  specvec/internal/isa.Inst.IsLoad specvec/internal/isa/isa.go:178 (inline)
     0.10s  5.00% 60.00%      0.10s  5.00%  specvec/internal/pipeline.(*Simulator).fetch specvec/internal/pipeline/fetch.go:49
     0.10s  5.00% 65.00%      0.10s  5.00%  specvec/internal/branch.(*Predictor).Predict specvec/internal/branch/branch.go:80
     0.10s  5.00% 70.00%      0.10s  5.00%  specvec/internal/pipeline.(*Simulator).commit specvec/internal/pipeline/commit.go:30
     0.10s  5.00% 75.00%      0.10s  5.00%  specvec/internal/mem.(*Cache).Access specvec/internal/mem/cache.go:99
     0.10s  5.00% 80.00%      0.10s  5.00%  specvec/internal/trace.(*Replayer).NextRef specvec/internal/trace/replay.go:60
     0.10s  5.00% 85.00%      0.10s  5.00%  runtime.scanobject runtime/mgcmark.go:1400
     0.05s  2.50% 87.50%      0.05s  2.50%  runtime.gcWriteBarrier2 runtime/asm_amd64.s:1700
     0.10s  5.00% 92.50%      0.10s  5.00%  specvec/internal/pipeline.(*uopRing).front specvec/internal/pipeline/uop.go:270 (inline)
    50000us  2.50% 95.00%    50000us  2.50%  runtime.duffcopy runtime/duff_amd64.s:398
     0.10s  5.00%   100%      0.10s  5.00%  specvec/internal/pipeline.(*Simulator).renamedStage specvec/internal/pipeline/newstage.go:10
`

func TestStageMapper(t *testing.T) {
	sp, err := stageShares(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"decode": 0.30, // decode.go plus isa
		"issue":  0.15,
		"core":   0.10,
		"fetch":  0.10, // fetch.go plus the branch predictor
		"commit": 0.05,
		"mem":    0.05,
		"trace":  0.05,
		"gc":     0.075,
		"other":  0.125, // uop.go, duffcopy and a file no rule knows
	}
	if math.Abs(sp.FlatS-2) > 1e-9 {
		t.Errorf("flat total = %v, want 2s", sp.FlatS)
	}
	total := 0.0
	for _, s := range stageNames {
		total += sp.Shares[s]
		if math.Abs(sp.Shares[s]-want[s]) > 1e-9 {
			t.Errorf("stage %s = %.4f, want %.4f", s, sp.Shares[s], want[s])
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if len(sp.Other) != 3 || sp.Other[0] != "specvec/internal/pipeline.(*Simulator).renamedStage 5.0%" {
		t.Errorf("unmapped functions = %q", sp.Other)
	}
}

func TestStageMapperRejectsNonTable(t *testing.T) {
	if _, err := stageShares("no profile here\n"); err == nil {
		t.Error("text without a -top table was accepted")
	}
}

func TestParsePprofDuration(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "10ms": 0.01, "1.5s": 1.5, "2mins": 120, "1hrs": 3600, "850us": 850e-6, "40ns": 40e-9} {
		got, err := parsePprofDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, %v; want %v", in, got, err, want)
		}
	}
}
