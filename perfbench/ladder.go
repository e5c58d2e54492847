package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// The layer ladder: the traced run replays the workload's programs and
// configurations through each layer's entry point on its own, one call
// at a time, so every layer has its own time. Each call is a span.

// ladderItem is one program and configuration of the workload.
type ladderItem struct {
	Bench  string
	Specs  []byte // workload-spec document defining Bench, if generated
	Scale  int
	Seed   int64
	Config string
}

// builtinLadder lists every built-in benchmark at scale, each with one
// configuration of the paper's matrix in rotation.
func builtinLadder(scale int, seed int64) []ladderItem {
	cfgs := configNames()
	var items []ladderItem
	for i, b := range benchmarkNames() {
		items = append(items, ladderItem{Bench: b, Scale: scale, Seed: seed, Config: cfgs[i%len(cfgs)]})
	}
	return items
}

// exampleSpecs reads the example workload-spec files shipped with the
// repository, in name order.
func exampleSpecs(root string) ([][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "workloads", "*.yaml"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no examples/workloads/*.yaml under %s", root)
	}
	sort.Strings(paths)
	var docs [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		docs = append(docs, b)
	}
	return docs, nil
}

// ladderTotals accumulates one layer step across items.
type ladderTotals struct {
	seconds float64
	insts   float64
}

func (t *ladderTotals) rate() float64 {
	if t.seconds == 0 {
		return 0
	}
	return t.insts / 1e6 / t.seconds
}

func runLadder(e *env, items []ladderItem, tr *tracer) (metricSet, error) {
	var (
		build, compile, emuT, rec, ckpt, enc, dec, drain, replay, recSim ladderTotals
		traceBytes, encBytes, traceInsts                                 float64
		cycles, committed, uops, vops, allocBytes                        float64
	)
	step := func(layer, name string, t *ladderTotals, fn func() (float64, error)) error {
		_, end := tr.begin(0, layer, name, "ladder")
		t0 := time.Now()
		n, err := fn()
		t.seconds += time.Since(t0).Seconds()
		t.insts += n
		end()
		return err
	}

	docs, err := exampleSpecs(e.root)
	if err != nil {
		return nil, err
	}
	for i, doc := range docs {
		if err := step("wspec", fmt.Sprintf("spec%d", i), &compile, func() (float64, error) {
			_, err := compileSpecs(doc)
			return 0, err
		}); err != nil {
			return nil, err
		}
	}

	for _, it := range items {
		name := it.Bench + "/" + it.Config
		var prog *program
		if err := step("workload", name, &build, func() (float64, error) {
			var err error
			prog, err = buildItem(it)
			return 0, err
		}); err != nil {
			return nil, err
		}
		target := recordTarget(it.Scale)
		if err := step("emu", name, &emuT, func() (float64, error) {
			n, err := emulate(prog, uint64(target))
			return float64(n), err
		}); err != nil {
			return nil, err
		}
		var tr0 *recording
		if err := step("trace", "record "+name, &rec, func() (float64, error) {
			var err error
			tr0, err = record(prog, target, 0)
			if err != nil {
				return 0, err
			}
			return float64(tr0.Len()), nil
		}); err != nil {
			return nil, err
		}
		traceBytes += float64(tr0.SizeBytes())
		traceInsts += float64(tr0.Len())
		if err := step("trace", "ckpt-record "+name, &ckpt, func() (float64, error) {
			_, err := record(prog, target, defaultCheckpointEvery())
			return 0, err
		}); err != nil {
			return nil, err
		}
		var blob []byte
		if err := step("trace", "encode "+name, &enc, func() (float64, error) {
			var err error
			blob, err = encodeTrace(tr0)
			return 0, err
		}); err != nil {
			return nil, err
		}
		encBytes += float64(len(blob))
		if err := step("trace", "decode "+name, &dec, func() (float64, error) {
			_, err := decodeTrace(blob)
			return 0, err
		}); err != nil {
			return nil, err
		}
		if err := step("trace", "replay-source "+name, &drain, func() (float64, error) {
			n, err := drainReplay(tr0, it.Config)
			return float64(n), err
		}); err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var pr pipelineRun
		if err := step("pipeline", "replay "+name, &replay, func() (float64, error) {
			var err error
			pr, err = replaySim(it.Config, tr0, it.Scale)
			return float64(pr.Committed), err
		}); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		cycles += float64(pr.Cycles)
		committed += float64(pr.Committed)
		uops += float64(pr.UopNews)
		vops += float64(pr.VopNews)
		if err := step("pipeline", "recording "+name, &recSim, func() (float64, error) {
			r, err := recordingSim(it.Config, prog, it.Scale)
			return float64(r.Committed), err
		}); err != nil {
			return nil, err
		}
	}
	return metricSet{
		"workload.build_ms":              build.seconds * 1e3,
		"wspec.compile_ms":               compile.seconds * 1e3,
		"emu.minst_per_s":                emuT.rate(),
		"trace.record_minst_per_s":       rec.rate(),
		"trace.ckpt_record_ms":           ckpt.seconds * 1e3,
		"trace.bytes_per_inst":           traceBytes / traceInsts,
		"trace.encode_ms":                enc.seconds * 1e3,
		"trace.decode_ms":                dec.seconds * 1e3,
		"trace.encoded_bytes_per_inst":   encBytes / traceInsts,
		"trace.replay_minst_per_s":       drain.rate(),
		"pipeline.replay_minst_per_s":    replay.rate(),
		"pipeline.recording_minst_per_s": recSim.rate(),
		"pipeline.host_ns_per_cycle":     replay.seconds * 1e9 / cycles,
		"pipeline.alloc_bytes_per_kinst": allocBytes / (committed / 1e3),
		"pipeline.uop_news":              uops,
		"pipeline.vop_news":              vops,
		"pipeline.sim_cycles":            cycles,
		"pipeline.sim_committed":         committed,
	}, nil
}

// buildItem builds a ladder item's program: Benchmark.Build of the
// built-in, or of the workload compiled from its spec document.
func buildItem(it ladderItem) (*program, error) {
	if len(it.Specs) == 0 {
		return buildBuiltin(it.Bench, it.Scale, it.Seed)
	}
	benches, err := compileSpecs(it.Specs)
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		if b.Name == it.Bench {
			return buildCompiled(b, it.Scale, it.Seed), nil
		}
	}
	return nil, fmt.Errorf("spec document does not define %s", it.Bench)
}
