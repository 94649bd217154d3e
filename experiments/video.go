package experiments

import (
	"gopim"
	"gopim/internal/energy"
	"gopim/internal/par"
	"gopim/internal/profile"
	"gopim/internal/video"
	"gopim/internal/vp9"
)

// Fig10 reproduces Figure 10: the VP9 software decoder's energy by
// function.
func Fig10(o Options) ([]PhaseFraction, error) {
	ev := o.evaluator()
	_, phases := o.run(profile.SoC(), vp9.DecodeKernel(gopim.EvalClipSpec(o.Scale)))
	order := []string{vp9.PhaseSubPel, vp9.PhaseOtherMC, vp9.PhaseDeblock, vp9.PhaseEntropy, vp9.PhaseInvXfrm}
	return fractionsOf(ev, phases, order, "Other"), nil
}

// Fig11Result is Figure 11: the decoder's energy split by hardware
// component for each function, plus the total data movement share.
type Fig11Result struct {
	ByPhase              map[string]energy.Breakdown
	Total                energy.Breakdown
	DataMovementFraction float64 // paper: 63.5%
	SubPelMovementShare  float64 // sub-pel share of all data movement
}

// Fig11 reproduces Figure 11.
func Fig11(o Options) (Fig11Result, error) {
	ev := o.evaluator()
	_, phases := o.run(profile.SoC(), vp9.DecodeKernel(gopim.EvalClipSpec(o.Scale)))
	res := Fig11Result{ByPhase: map[string]energy.Breakdown{}}
	for _, name := range sortedPhaseNames(phases) {
		b := ev.CPUPhaseEnergy(phases[name])
		res.ByPhase[name] = b
		res.Total = res.Total.Add(b)
	}
	res.DataMovementFraction = res.Total.DataMovementFraction()
	if dm := res.Total.DataMovement(); dm > 0 {
		res.SubPelMovementShare = res.ByPhase[vp9.PhaseSubPel].DataMovement() / dm
	}
	return res, nil
}

// Fig15 reproduces Figure 15: the VP9 software encoder's energy by
// function.
func Fig15(o Options) ([]PhaseFraction, error) {
	ev := o.evaluator()
	_, phases := o.run(profile.SoC(), vp9.EncodeKernel(gopim.EvalClipSpec(o.Scale)))
	order := []string{vp9.PhaseME, vp9.PhaseIntraPred, vp9.PhaseTransform, vp9.PhaseQuant, vp9.PhaseDeblock}
	return fractionsOf(ev, phases, order, "Other"), nil
}

// HWTrafficRow is one bar of Figures 12/16: per-frame off-chip traffic by
// category for one (resolution, compression) configuration.
type HWTrafficRow struct {
	Resolution string
	Compressed bool
	Items      []vp9.TrafficItem
	TotalMB    float64
}

func hwRows(workers int, p vp9.HWParams, model func(w, h int, c bool, p vp9.HWParams) []vp9.TrafficItem) []HWTrafficRow {
	configs := []struct {
		name string
		w, h int
		comp bool
	}{
		{"HD", video.HDWidth, video.HDHeight, true},
		{"HD", video.HDWidth, video.HDHeight, false},
		{"4K", video.K4Width, video.K4Height, true},
		{"4K", video.K4Width, video.K4Height, false},
	}
	return par.Map(workers, len(configs), func(i int) HWTrafficRow {
		c := configs[i]
		items := model(c.w, c.h, c.comp, p)
		return HWTrafficRow{
			Resolution: c.name, Compressed: c.comp, Items: items,
			TotalMB: vp9.TotalTraffic(items) / 1e6,
		}
	})
}

// Fig12 reproduces Figure 12: hardware decoder off-chip traffic.
func Fig12(o Options) ([]HWTrafficRow, error) {
	return hwRows(o.workers(), vp9.MeasureHWParams(gopim.EvalClip(o.Scale)), vp9.HWDecodeTraffic), nil
}

// Fig16 reproduces Figure 16: hardware encoder off-chip traffic.
func Fig16(o Options) ([]HWTrafficRow, error) {
	return hwRows(o.workers(), vp9.MeasureHWParams(gopim.EvalClip(o.Scale)), vp9.HWEncodeTraffic), nil
}

// Fig20Row is one bar pair of Figure 20: a software video kernel under one
// execution mode.
type Fig20Row struct {
	Kernel        string
	Mode          gopim.Mode
	NormEnergy    float64
	NormRuntime   float64
	Energy        gopim.Breakdown
	Speedup       float64
	EnergySavings float64
}

// Fig20 reproduces Figure 20: energy and runtime of sub-pixel
// interpolation, the deblocking filter, and motion estimation under
// CPU-only, PIM-core and PIM-accelerator execution.
func Fig20(o Options) ([]Fig20Row, error) {
	ev := o.evaluator()
	var targets []gopim.Target
	for _, t := range gopim.Targets(o.Scale) {
		if t.Workload == "Video Playback" || t.Workload == "Video Capture" {
			targets = append(targets, t)
		}
	}
	perTarget := par.Map(o.workers(), len(targets), func(i int) []Fig20Row {
		t := targets[i]
		res := ev.Evaluate(t)
		base := res.ByMode[gopim.CPUOnly]
		var out []Fig20Row
		for _, mode := range gopim.Modes {
			e := res.ByMode[mode]
			out = append(out, Fig20Row{
				Kernel: t.Name, Mode: mode,
				NormEnergy:    e.Energy.Total() / base.Energy.Total(),
				NormRuntime:   e.Seconds / base.Seconds,
				Energy:        e.Energy,
				Speedup:       res.Speedup(mode),
				EnergySavings: res.EnergyReduction(mode),
			})
		}
		return out
	})
	var rows []Fig20Row
	for _, r := range perTarget {
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig21Row is one bar of Figure 21: hardware codec energy for one
// (codec, mode, compression) configuration.
type Fig21Row struct {
	Codec      string // "decoder" or "encoder"
	Mode       vp9.HWEnergyMode
	Compressed bool
	EnergyMJ   float64
	Breakdown  gopim.Breakdown
}

// Fig21 reproduces Figure 21: total energy of the hardware VP9 decoder and
// encoder under the baseline, PIM-core, and PIM-accelerator designs, with
// and without lossless frame compression, for one HD frame.
func Fig21(o Options) ([]Fig21Row, error) {
	p := vp9.MeasureHWParams(gopim.EvalClip(o.Scale))
	params := energy.Default()
	const decodeOpsPerPixel = 12 // MC filters + deblock datapath
	const encodeOpsPerPixel = 30 // ME SADs dominate

	var rows []Fig21Row
	for _, comp := range []bool{false, true} {
		for _, mode := range []vp9.HWEnergyMode{vp9.HWBaseline, vp9.HWPIMCore, vp9.HWPIMAcc} {
			items := vp9.HWDecodeTraffic(video.HDWidth, video.HDHeight, comp, p)
			b := vp9.HWEnergy(items, video.HDWidth, video.HDHeight, mode, params, decodeOpsPerPixel)
			rows = append(rows, Fig21Row{Codec: "decoder", Mode: mode, Compressed: comp, EnergyMJ: b.Total() / 1e9, Breakdown: b})

			items = vp9.HWEncodeTraffic(video.HDWidth, video.HDHeight, comp, p)
			b = vp9.HWEnergy(items, video.HDWidth, video.HDHeight, mode, params, encodeOpsPerPixel)
			rows = append(rows, Fig21Row{Codec: "encoder", Mode: mode, Compressed: comp, EnergyMJ: b.Total() / 1e9, Breakdown: b})
		}
	}
	return rows, nil
}
