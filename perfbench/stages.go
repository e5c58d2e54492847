package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Stage attribution of the cycle loop. The traced run takes a CPU
// profile, has `go tool pprof -top -lines` list flat samples per source
// line for the stacks that pass through the cycle loop (plus the
// background GC workers), and maps each line's file and function onto a
// stage. Lines no rule claims go to "other", so a renamed file or
// function shows up there instead of vanishing.

// cycleLoopFocus selects the samples pprof keeps: stacks through the
// simulator's cycle loop, and the concurrent GC mark workers whose work
// that loop's allocations cause.
const cycleLoopFocus = `pipeline\.\(\*Simulator\)\.runUntil|runtime\.gcBgMarkWorker`

// stageRule maps a source path or function name fragment onto a stage.
type stageRule struct {
	stage string
	file  string // substring of the source path, "" = unused
	fn    string // prefix of the function name, "" = unused
}

var stageRules = []stageRule{
	{stage: "fetch", file: "internal/pipeline/fetch.go"},
	{stage: "fetch", file: "internal/branch/"},
	{stage: "decode", file: "internal/pipeline/decode.go"},
	{stage: "decode", file: "internal/isa/"},
	{stage: "issue", file: "internal/pipeline/issue.go"},
	{stage: "commit", file: "internal/pipeline/commit.go"},
	{stage: "mem", file: "internal/mem/"},
	{stage: "core", file: "internal/core/"},
	{stage: "trace", file: "internal/trace/"},
	{stage: "trace", file: "internal/emu/"},
	{stage: "gc", file: "runtime/mgc"},
	{stage: "gc", file: "runtime/mbarrier.go"},
	{stage: "gc", file: "runtime/mwbbuf.go"},
	{stage: "gc", file: "runtime/mbitmap.go"},
	{stage: "gc", fn: "runtime.gcWriteBarrier"},
	{stage: "gc", fn: "runtime.wbBuf"},
	{stage: "gc", fn: "runtime.bulkBarrier"},
	{stage: "gc", fn: "runtime.gcBgMarkWorker"},
	{stage: "gc", fn: "runtime.gcDrain"},
	{stage: "gc", fn: "runtime.scanobject"},
	{stage: "gc", fn: "runtime.greyobject"},
	{stage: "gc", fn: "runtime.markBits"},
	{stage: "gc", fn: "runtime.findObject"},
}

var sourceLine = regexp.MustCompile(`\.(go|s):\d+$`)

// stageOf maps one profile row onto a stage.
func stageOf(fn, file string) string {
	for _, r := range stageRules {
		if r.file != "" && strings.Contains(file, r.file) {
			return r.stage
		}
		if r.fn != "" && strings.HasPrefix(fn, r.fn) {
			return r.stage
		}
	}
	return "other"
}

// stageProfile is a CPU profile mapped onto stages.
type stageProfile struct {
	Shares map[string]float64 // every stage in stageNames; sums to 1 when any sample was listed
	FlatS  float64            // flat seconds listed
	// Other lists the functions with the most flat time no rule claimed,
	// so a renamed file or function is easy to spot.
	Other []string
}

// stageShares parses `go tool pprof -top` text (with or without -lines)
// and maps its flat samples onto stages.
func stageShares(top string) (stageProfile, error) {
	flat := map[string]float64{}
	other := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(top))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		secs, err := parsePprofDuration(fields[0])
		if err != nil {
			return stageProfile{}, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		// The function name may itself contain spaces (generic shapes),
		// and -lines rows may end in "(inline)": the file is the last
		// field that looks like path:line.
		fn, file := fields[5], ""
		for _, f := range fields[6:] {
			if sourceLine.MatchString(f) {
				file = f
			}
		}
		stage := stageOf(fn, file)
		flat[stage] += secs
		if stage == "other" {
			other[fn] += secs
		}
		total += secs
	}
	if err := sc.Err(); err != nil {
		return stageProfile{}, err
	}
	if !inTable {
		return stageProfile{}, fmt.Errorf("no pprof -top table found")
	}
	sp := stageProfile{Shares: map[string]float64{}, FlatS: total}
	for _, s := range stageNames {
		sp.Shares[s] = 0
		if total > 0 {
			sp.Shares[s] = flat[s] / total
		}
	}
	fns := make([]string, 0, len(other))
	for fn := range other {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		if other[fns[i]] != other[fns[j]] {
			return other[fns[i]] > other[fns[j]]
		}
		return fns[i] < fns[j]
	})
	for _, fn := range fns[:min(len(fns), 8)] {
		sp.Other = append(sp.Other, fmt.Sprintf("%s %.1f%%", fn, 100*other[fn]/total))
	}
	return sp, nil
}

// parsePprofDuration parses pprof's scaled sample values: "0", "10ms",
// "1.25s", "2.50mins", "1hrs", "850us", "40ns".
func parsePprofDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// profileTop runs `go tool pprof -top -lines` over a CPU profile of
// binary, focused on the cycle loop.
func profileTop(binary, profile string) (string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-lines", "-nodecount=1000000",
		"-focus="+cycleLoopFocus, binary, profile)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}
