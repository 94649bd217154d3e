package main

import (
	"fmt"
	"reflect"

	"gopim"
	"gopim/experiments"
	"gopim/internal/cache"
	"gopim/internal/core"
	"gopim/internal/mem"
	"gopim/internal/profile"
	"gopim/internal/trace"
)

// families names the nine kernel families of gopim.Targets(Quick), keyed
// by target name; per-layer metrics are suffixed with these names.
var families = map[string]string{
	"Texture Tiling":          "texture",
	"Color Blitting":          "blit",
	"Compression":             "compress",
	"Decompression":           "decompress",
	"Packing":                 "pack",
	"Quantization":            "quantize",
	"Sub-Pixel Interpolation": "subpel",
	"Deblocking Filter":       "deblock",
	"Motion Estimation":       "me",
}

// familyOrder lists the families in Targets order.
var familyOrder = []string{"texture", "blit", "compress", "decompress", "pack", "quantize", "subpel", "deblock", "me"}

// walk is the traced run's layer walk: it takes each kernel family once
// through every public layer call, each under its own span, so per-layer
// times come from the layers' own entry points and not from inside them.
type walk struct {
	e       *env
	root    int
	targets []gopim.Target
	traces  []*trace.Trace
}

// walkInputs builds the clip and targets under spans and records every
// family's trace with cache.TraceFor, one family at a time. The cache must
// be empty so each TraceFor is a kernel record.
func walkInputs(e *env, c *trace.Cache) *walk {
	w := &walk{e: e, root: e.tr.Start("bench.walk", 0)}
	e.tr.Do("gopim.EvalClip", w.root, func() { gopim.EvalClip(gopim.Quick) })
	e.tr.Do("gopim.Targets", w.root, func() { w.targets = gopim.Targets(gopim.Quick) })
	for _, t := range w.targets {
		f, ok := families[t.Name]
		if !ok {
			e.rep.drop(fmt.Sprintf("target %q has no family name; its layer metrics are not measured", t.Name))
		}
		var tr *trace.Trace
		e.tr.Do("trace.Cache.TraceFor/"+f, w.root, func() { tr = c.TraceFor(t.Kernel) })
		w.traces = append(w.traces, tr)
	}
	return w
}

// layers walks each family through the store, compile, replay and pricing
// layers. points are explore-store's design points, whose line-size
// groups drive ReplayBatch. Results of the three replay engines are
// checked against each other; any difference is an oracle failure.
func (w *walk) layers(storeDir string, points []experiments.DesignPoint) error {
	e := w.e
	defer e.tr.End(w.root)
	st, err := trace.OpenStore(storeDir)
	if err != nil {
		return err
	}
	groups := lineGroups(points)
	for _, g := range groups {
		e.rep.sample("walk.batch_configs", float64(len(g)))
	}
	paper := []profile.Hardware{profile.SoC(), profile.PIMCore(), profile.PIMAcc()}
	ev := core.NewEvaluator()
	for i, t := range w.targets {
		f := families[t.Name]
		key := profile.KeyOf(t.Kernel)
		e.tr.Do("trace.Store.SaveAsync+Wait/"+f, w.root, func() {
			st.SaveAsync(key, w.traces[i])
			st.Wait()
		})
		var lt *trace.Trace
		ok := false
		e.tr.Do("trace.Store.Load/"+f, w.root, func() { lt, ok = st.Load(key) })
		if !ok {
			return fmt.Errorf("walk: %s: stored trace did not load back", f)
		}
		e.tr.Do("trace.Trace.Compiled/"+f, w.root, func() {
			for _, ls := range lineSizes(paper, groups) {
				lt.Compiled(uint64(ls))
			}
		})
		profs := make([]profile.Profile, len(paper))
		phases := make([]map[string]profile.Profile, len(paper))
		e.tr.Do("trace.Trace.Replay/"+f, w.root, func() {
			for j, hw := range paper {
				profs[j], phases[j] = lt.Replay(hw)
			}
		})
		e.tr.Do("trace.Trace.ReplayInterp/"+f, w.root, func() {
			for j, hw := range paper {
				p, ph := lt.ReplayInterp(hw)
				if !reflect.DeepEqual(p, profs[j]) || !reflect.DeepEqual(ph, phases[j]) {
					e.rep.mismatch(fmt.Sprintf("walk: %s: interpreted replay on %s differs from compiled replay", f, hw.Name))
				}
			}
		})
		e.tr.Do("trace.CompiledTrace.ReplayBatch/"+f, w.root, func() {
			for _, g := range groups {
				lt.ReplayBatch(g)
			}
		})
		e.tr.Do("core.Evaluator.EvaluateProfiles/"+f, w.root, func() {
			ev.EvaluateProfiles(t,
				core.SelectPhases(profs[0], phases[0], t.Phases),
				core.SelectPhases(profs[1], phases[1], t.Phases),
				core.SelectPhases(profs[2], phases[2], t.Phases))
		})
	}
	return nil
}

// lineGroups dedups the points' cache geometries and groups them by line
// size, in first-occurrence order — the batches the explorer walks. The
// point → hardware mapping mirrors experiments.DesignPoint's own.
func lineGroups(points []experiments.DesignPoint) [][]profile.Hardware {
	seen := map[string]bool{}
	byLine := map[int]int{}
	var groups [][]profile.Hardware
	for _, p := range points {
		hw := pointHardware(p)
		k := trace.HardwareKey(hw)
		if seen[k] {
			continue
		}
		seen[k] = true
		ls := hw.L1.LineSize
		if ls == 0 {
			ls = mem.LineSize
		}
		gi, ok := byLine[ls]
		if !ok {
			gi = len(groups)
			byLine[ls] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], hw)
	}
	return groups
}

// pointHardware is the memory system a design point replays on.
func pointHardware(p experiments.DesignPoint) profile.Hardware {
	l1 := cache.Config{Size: p.L1Size, Ways: p.L1Ways, LineSize: p.LineSize}
	switch p.Kind {
	case experiments.KindCPU:
		l1.Name = "L1D"
		l2 := cache.Config{Name: "LLC", Size: p.L2Size, Ways: p.L2Ways, LineSize: p.LineSize}
		return profile.Hardware{Name: experiments.KindCPU, L1: l1, L2: &l2}
	case experiments.KindCore:
		l1.Name = "PIM-L1"
		return profile.Hardware{Name: experiments.KindCore, L1: l1}
	default:
		l1.Name = "PIM-Buf"
		return profile.Hardware{Name: experiments.KindAcc, L1: l1}
	}
}

// lineSizes lists the distinct line sizes the walk replays at.
func lineSizes(paper []profile.Hardware, groups [][]profile.Hardware) []int {
	var out []int
	add := func(hw profile.Hardware) {
		ls := hw.L1.LineSize
		if ls == 0 {
			ls = mem.LineSize
		}
		for _, x := range out {
			if x == ls {
				return
			}
		}
		out = append(out, ls)
	}
	for _, hw := range paper {
		add(hw)
	}
	for _, g := range groups {
		add(g[0])
	}
	return out
}

// uniquePoints returns the distinct design points of an explore result
// (rows repeat each point once per workload).
func uniquePoints(res *experiments.ExploreResult) []experiments.DesignPoint {
	seen := map[int]bool{}
	var out []experiments.DesignPoint
	for _, r := range res.Rows {
		if !seen[r.Point.ID] {
			seen[r.Point.ID] = true
			out = append(out, r.Point)
		}
	}
	return out
}
